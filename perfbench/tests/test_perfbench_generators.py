"""Seeded inputs: same seed, same ops; loads from the fixed tables."""

from perfbench import generators as g


def test_closed_form_is_deterministic_per_seed():
    a = g.closed_form_scenarios(3, 2.0)
    assert a == g.closed_form_scenarios(3, 2.0)
    assert a != g.closed_form_scenarios(4, 2.0)


def test_closed_form_mix_is_fixed_per_block():
    ops = g.closed_form_scenarios(5, 7.0)
    block = len(g.CLOSED_FORM_BLOCK)
    assert len(ops) == 2 * block
    for i in range(0, len(ops), block):
        mix = sorted(
            ((o["backend"], o["sweep_points"] > 0), (o["topology"], o["num_processors"]))
            for o in ops[i:i + block]
        )
        assert mix == sorted(g.CLOSED_FORM_BLOCK)


def test_closed_form_scenarios_are_distinct_and_below_table_loads():
    ops = g.closed_form_scenarios(9, 5.0)
    assert len({tuple(sorted(o.items())) for o in ops}) == len(ops)
    for o in ops:
        top = max(g.OPERATING_LOADS[(o["topology"], o["num_processors"])])
        assert 0 < o["flit_load"] <= top


def test_longer_runs_extend_the_same_sequence():
    short = g.closed_form_scenarios(2, 1.0)
    long = g.closed_form_scenarios(2, 4.0)
    assert long[: len(short)] == short


def test_explore_rounds_price_the_same_faults_on_every_seed():
    calls = g.explore_calls(1, 10.0)
    assert calls == g.explore_calls(1, 10.0)
    k = g.explore_faults_per_round(10.0)
    assert len(calls) == g.EXPLORE_ROUNDS * k
    first = sorted(g.EXPLORE_FAULT_SEEDS[:k])
    for i in range(0, len(calls), k):
        assert sorted(c.fault_seed for c in calls[i:i + k]) == first
    assert sorted(c.fault_seed for c in g.explore_calls(2, 10.0)) == sorted(
        c.fault_seed for c in calls)


def test_simulate_blocks_cover_every_stratum():
    ops = g.simulate_scenarios(4, 15.0)
    assert ops == g.simulate_scenarios(4, 15.0)
    n = len(g.SIM_STRATA)
    assert len(ops) % n == 0
    for i in range(0, len(ops), n):
        keys = {(o["topology"], o["num_processors"], o["pattern"], o["simulator"]) for o in ops[i:i + n]}
        assert len(keys) == n


def test_serve_schedule_is_deterministic_and_ordered():
    a = g.serve_schedule(6, 4.0)
    assert a == g.serve_schedule(6, 4.0)
    assert a != g.serve_schedule(7, 4.0)
    for window in range(g.SERVE_WINDOWS):
        for step in range(len(g.SERVE_RATES)):
            dues = [r.due for r in a if r.step == step and r.window == window]
            assert dues == sorted(dues)
            assert dues and dues[-1] < g.SERVE_STEP_SHARES[step] * 4.0 / g.SERVE_WINDOWS
    catalog = g.serve_catalog(6)
    assert all(r.scenario in catalog for r in a if r.kind == "hit")
    assert not any(r.scenario in catalog for r in a if r.kind == "miss")
