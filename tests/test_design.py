"""Tests for the design-space exploration subsystem (:mod:`repro.design`)."""

from __future__ import annotations

import json
import math
import time

import pytest

from repro import ButterflyFatTreeModel, Scenario, Workload, run
from repro.core import saturation_injection_rate
from repro.design import (
    PORT_COUNT_COST,
    Candidate,
    DesignSpace,
    FamilySpace,
    LinearCostModel,
    Objective,
    Requirements,
    available_families,
    bft_space,
    clear_metrics_cache,
    design_family,
    explore,
    generalized_fattree_space,
    hypercube_space,
    kary_ncube_space,
    metrics_cache_size,
    pareto_frontier,
)
from repro.errors import ConfigurationError, PartitionedNetworkError
from repro.obs import METRICS
from repro.traffic.spec import HotspotSpec, TransposeSpec, UniformSpec


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from a cold metrics memo."""
    clear_metrics_cache()
    yield
    clear_metrics_cache()


def small_requirements(**overrides) -> Requirements:
    defaults = dict(demand_flit_load=0.02, latency_slo=75.0)
    defaults.update(overrides)
    return Requirements(**defaults)


class TestFamilies:
    def test_registry(self):
        assert set(available_families()) >= {
            "bft",
            "generalized-fattree",
            "hypercube",
            "kary-ncube",
        }
        with pytest.raises(ConfigurationError):
            design_family("nope")

    def test_bft_validation(self):
        fam = design_family("bft")
        with pytest.raises(ConfigurationError):
            fam.validate({"processors": 100})
        with pytest.raises(ConfigurationError):
            fam.validate({"size": 16})
        assert fam.num_processors({"processors": 64}) == 64

    def test_hardware_matches_topology(self, bft64):
        hw = design_family("bft").hardware({"processors": 64})
        assert hw.switches == bft64.num_nodes - 64
        assert hw.links == bft64.num_links
        assert hw.ports == 2 * bft64.num_links - 2 * 64

    def test_hardware_scales_with_size(self):
        fam = design_family("bft")
        small = fam.hardware({"processors": 16})
        big = fam.hardware({"processors": 256})
        assert big.switches > small.switches
        assert big.links > small.links
        assert big.ports > small.ports

    def test_uniform_evaluator_is_closed_form(self):
        model = design_family("bft").evaluator({"processors": 64}, UniformSpec(), 16)
        assert isinstance(model, ButterflyFatTreeModel)

    def test_pattern_rejected_on_uniform_only_family(self):
        fam = design_family("kary-ncube")
        with pytest.raises(ConfigurationError):
            fam.evaluator({"radix": 4, "dimensions": 2}, HotspotSpec(), 16)

    def test_size_mapping(self):
        assert design_family("bft").sizes_to_params(256) == {"processors": 256}
        assert design_family("bft").sizes_to_params(100) is None
        assert design_family("hypercube").sizes_to_params(64) == {"dimension": 6}
        assert design_family("hypercube").sizes_to_params(48) is None


class TestSpace:
    def test_expansion_counts(self):
        space = DesignSpace(
            families=(bft_space((16, 64)),),
            message_lengths=(16, 32),
            patterns=("uniform",),
            buffer_depths=(1, 4),
        )
        expansion = space.expand()
        assert len(expansion.candidates) == 2 * 2 * 2
        assert expansion.skipped == ()
        assert space.size == 8

    def test_single_family_space_promoted(self):
        space = DesignSpace(families=bft_space((16,)), message_lengths=(16,))
        assert len(space.candidates()) == 1

    def test_pattern_names_resolved(self):
        space = DesignSpace(
            families=(bft_space((16,)),),
            message_lengths=(16,),
            patterns=("uniform", "hotspot"),
        )
        assert {s.name for s in space.patterns} == {"uniform", "hotspot"}

    def test_unsupported_pattern_is_skipped_not_dropped(self):
        space = DesignSpace(
            families=(kary_ncube_space((4,), (2,)),),
            message_lengths=(16,),
            patterns=("uniform", "hotspot"),
        )
        expansion = space.expand()
        assert len(expansion.candidates) == 1
        assert len(expansion.skipped) == 1
        assert "pattern-aware" in expansion.skipped[0].reason

    def test_pattern_size_incompatibility_is_skipped(self):
        # transpose needs an even power of two: dimension 5 (N=32) skips.
        space = DesignSpace(
            families=(hypercube_space((4, 5)),),
            message_lengths=(16,),
            patterns=(TransposeSpec(),),
        )
        expansion = space.expand()
        assert len(expansion.candidates) == 1
        assert len(expansion.skipped) == 1
        assert "rejects N=32" in expansion.skipped[0].reason

    def test_invalid_family_parameters_raise(self):
        # Value validation is structural, so expansion raises (not a skip).
        space = DesignSpace(families=(bft_space((100,)),), message_lengths=(16,))
        with pytest.raises(ConfigurationError):
            space.expand()

    def test_family_space_rejects_bad_axes(self):
        with pytest.raises(ConfigurationError):
            FamilySpace.build("bft", processors=())
        with pytest.raises(ConfigurationError):
            FamilySpace.build("bft", processors=(16, 16))
        with pytest.raises(ConfigurationError):
            FamilySpace.build("bft", sizes=(16,))

    def test_candidate_label_and_params(self):
        c = Candidate("bft", (("processors", 64),), 32, HotspotSpec(), buffer_depth=4)
        assert c.num_processors == 64
        assert c.pattern == "hotspot"
        assert "b=4" in c.label() and "f=32" in c.label()


class TestCost:
    def test_linear_cost_arithmetic(self):
        fam = design_family("bft")
        hw = fam.hardware({"processors": 16})
        model = LinearCostModel(
            switch_cost=10.0, link_cost=1.0, port_cost=2.0, buffer_flit_cost=0.5
        )
        c = Candidate("bft", (("processors", 16),), 16, UniformSpec(), buffer_depth=8)
        breakdown = model.cost(c, hw)
        assert breakdown.switches == 10.0 * hw.switches
        assert breakdown.links == 1.0 * hw.links
        assert breakdown.ports == 2.0 * hw.ports
        assert breakdown.buffers == 0.5 * hw.ports * 8
        assert breakdown.total == pytest.approx(
            breakdown.switches + breakdown.links + breakdown.ports + breakdown.buffers
        )

    def test_port_count_cost(self):
        hw = design_family("bft").hardware({"processors": 16})
        c = Candidate("bft", (("processors", 16),), 16, UniformSpec())
        assert PORT_COUNT_COST.cost(c, hw).total == hw.ports

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearCostModel(switch_cost=-1.0)

    def test_buffer_depth_changes_cost_not_metrics(self):
        space = DesignSpace(
            families=(bft_space((16,)),),
            message_lengths=(16,),
            buffer_depths=(1, 8),
        )
        result = explore(space, small_requirements())
        shallow, deep = result.evaluations
        assert shallow.metrics == deep.metrics
        assert deep.cost.total > shallow.cost.total
        # One metric evaluation served both candidates.
        assert metrics_cache_size() == 1


class TestPareto:
    def test_dominated_points_removed(self):
        items = [(1.0, 1.0), (2.0, 2.0), (1.0, 2.0)]
        frontier = pareto_frontier(
            items,
            (Objective(lambda p: p[0], "min"), Objective(lambda p: p[1], "min")),
        )
        assert frontier == ((1.0, 1.0),)

    def test_maximize_axis(self):
        items = [(1.0, 1.0), (1.0, 3.0), (2.0, 5.0)]
        frontier = pareto_frontier(
            items,
            (Objective(lambda p: p[0], "min"), Objective(lambda p: p[1], "max")),
        )
        assert (1.0, 3.0) in frontier and (2.0, 5.0) in frontier
        assert (1.0, 1.0) not in frontier

    def test_nonfinite_points_excluded(self):
        items = [(math.inf, 0.0), (1.0, 1.0)]
        frontier = pareto_frontier(
            items,
            (Objective(lambda p: p[0], "min"), Objective(lambda p: p[1], "min")),
        )
        assert frontier == ((1.0, 1.0),)

    def test_ties_all_survive(self):
        items = [("a", 1.0), ("b", 1.0)]
        frontier = pareto_frontier(items, (Objective(lambda p: p[1], "min"),))
        assert len(frontier) == 2

    def test_bad_sense_rejected(self):
        with pytest.raises(ConfigurationError):
            Objective(lambda p: p, "down")


class TestRequirements:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Requirements(demand_flit_load=0.0, latency_slo=10.0)
        with pytest.raises(ConfigurationError):
            Requirements(demand_flit_load=0.02, latency_slo=0.0)
        with pytest.raises(ConfigurationError):
            Requirements(demand_flit_load=0.02, latency_slo=10.0, min_headroom=-1.0)
        with pytest.raises(ConfigurationError):
            Requirements(demand_flit_load=0.02, latency_slo=10.0, max_cost=0.0)

    def test_violation_clauses(self):
        req = Requirements(
            demand_flit_load=0.02, latency_slo=50.0, min_headroom=2.0, max_cost=100.0
        )
        assert req.violations(40.0, 3.0, 50.0) == ()
        assert any("SLO" in v for v in req.violations(60.0, 3.0, 50.0))
        assert any("headroom" in v for v in req.violations(40.0, 1.0, 50.0))
        assert any("budget" in v for v in req.violations(40.0, 3.0, 500.0))
        # Saturated latency always violates the SLO clause.
        assert any("SLO" in v for v in req.violations(math.inf, 3.0, 50.0))


class TestExplore:
    def test_agreement_with_legacy_scalar_loop(self):
        """The explorer must reproduce the old capacity_planning.py result.

        The legacy example hand-rolled a scalar loop — one ``latency`` call
        and one ``saturation_injection_rate`` per (N, flits) pair, then
        ``max(feasible)`` over the (N, flits) tuples.  The explorer's
        ``largest_feasible`` must select the same configuration.
        """
        budget, demand = 75.0, 0.02
        sizes, lengths = (16, 64, 256), (16, 32, 64)

        feasible: list[tuple[int, int]] = []
        for n in sizes:
            model = ButterflyFatTreeModel(n)
            for flits in lengths:
                wl = Workload.from_flit_load(demand, flits)
                latency = model.latency(wl)
                if math.isfinite(latency) and latency <= budget:
                    feasible.append((n, flits))
        legacy = max(feasible)

        space = DesignSpace(families=(bft_space(sizes),), message_lengths=lengths)
        result = explore(
            space, Requirements(demand_flit_load=demand, latency_slo=budget)
        )
        largest = result.largest_feasible()
        assert largest is not None
        assert (
            largest.candidate.num_processors,
            largest.candidate.message_flits,
        ) == legacy
        # And the per-pair feasibility sets agree exactly.
        explored = sorted(
            (e.candidate.num_processors, e.candidate.message_flits)
            for e in result.feasible
        )
        assert explored == sorted(feasible)

    def test_latency_matches_direct_model(self):
        space = DesignSpace(families=(bft_space((64,)),), message_lengths=(32,))
        req = small_requirements()
        result = explore(space, req)
        (ev,) = result.evaluations
        model = ButterflyFatTreeModel(64)
        assert ev.latency == pytest.approx(
            model.latency(Workload.from_flit_load(req.demand_flit_load, 32))
        )
        sat = saturation_injection_rate(model, 32).flit_load
        assert ev.saturation_flit_load == pytest.approx(sat, rel=1e-5)
        assert ev.headroom == pytest.approx(sat / req.demand_flit_load, rel=1e-5)

    def test_memoization_across_calls(self):
        space = DesignSpace(
            families=(bft_space((16, 64)),), message_lengths=(16, 32)
        )
        explore(space, small_requirements())
        size_after_first = metrics_cache_size()
        assert size_after_first == 4
        t0 = time.perf_counter()
        explore(space, small_requirements())
        assert metrics_cache_size() == size_after_first
        assert time.perf_counter() - t0 < 0.5

    def test_demand_sweep_reuses_saturation(self):
        """A new demand re-runs only latency solves, not saturation searches."""
        from repro.design import evaluate

        space = DesignSpace(
            families=(bft_space((16, 64)),), message_lengths=(16,)
        )
        first = explore(space, small_requirements(demand_flit_load=0.02))
        sat_entries = len(evaluate._SATURATION_CACHE)
        second = explore(space, small_requirements(demand_flit_load=0.03))
        # Saturation (demand-independent) was not recomputed or re-keyed...
        assert len(evaluate._SATURATION_CACHE) == sat_entries
        # ...while each demand point has its own latency entries.
        assert metrics_cache_size() == 2 * sat_entries
        for a, b in zip(first.evaluations, second.evaluations):
            assert a.saturation_flit_load == b.saturation_flit_load
            assert a.headroom > b.headroom  # higher demand, less headroom
            assert b.latency > a.latency

    @pytest.mark.parametrize("survives_faults", [0, 1])
    def test_parallel_matches_serial(self, survives_faults):
        space = DesignSpace(
            families=(bft_space((16, 64)), hypercube_space((4,))),
            message_lengths=(16,),
            patterns=("uniform", "hotspot"),
        )
        # Seed 7 partitions the 16-PE fat-tree and the hypercube but not
        # the 64-PE fat-tree, so the degraded pass fans out both verdicts.
        req = small_requirements(survives_faults=survives_faults, fault_seed=7)
        serial = explore(space, req)
        clear_metrics_cache()
        parallel = explore(space, req, processes=2)
        assert [e.as_json() for e in parallel.evaluations] == [
            e.as_json() for e in serial.evaluations
        ]

    def test_headroom_is_judged_at_the_eq26_saturation(self):
        """The 2-ary 3-cube saturates at flit load 1 (its terminal channel
        is the bottleneck), so a demand of 1.5 has no headroom left."""
        space = DesignSpace(
            families=(kary_ncube_space((2,), (3,)),), message_lengths=(16,)
        )
        (ev,) = explore(
            space, small_requirements(demand_flit_load=1.5, latency_slo=1e9)
        ).evaluations
        assert math.isinf(ev.latency)
        assert ev.headroom < 1.0
        assert any(v.startswith("headroom") for v in ev.violations)

    def test_cheapest_feasible_and_budget(self):
        space = DesignSpace(
            families=(bft_space((16, 64)),), message_lengths=(16,)
        )
        result = explore(space, small_requirements())
        cheapest = result.cheapest_feasible
        assert cheapest is not None
        assert cheapest.candidate.num_processors == 16
        # A budget below every design empties the feasible set.
        capped = explore(space, small_requirements(max_cost=1.0))
        assert capped.feasible == ()
        assert capped.cheapest_feasible is None
        assert capped.largest_feasible() is None

    def test_impossible_slo_yields_no_feasible(self):
        space = DesignSpace(families=(bft_space((64,)),), message_lengths=(32,))
        result = explore(space, small_requirements(latency_slo=1.0))
        assert result.feasible == ()
        assert result.cheapest_feasible is None

    def test_empty_expansion_raises(self):
        space = DesignSpace(
            families=(kary_ncube_space((4,), (2,)),),
            message_lengths=(16,),
            patterns=("hotspot",),
        )
        with pytest.raises(ConfigurationError):
            explore(space, small_requirements())

    def test_pareto_frontier_nontrivial_two_families_two_specs(self):
        """Acceptance: a non-trivial frontier over >= 2 families x >= 2 specs."""
        space = DesignSpace(
            families=(bft_space((16, 64)), hypercube_space((4, 6))),
            message_lengths=(16,),
            patterns=(UniformSpec(), HotspotSpec(fraction=0.1)),
        )
        result = explore(space, small_requirements())
        frontier = result.pareto()
        assert len(frontier) >= 2
        families = {e.candidate.family for e in result.evaluations}
        patterns = {e.candidate.pattern for e in result.evaluations}
        assert len(families) >= 2 and len(patterns) >= 2
        # Frontier members are mutually non-dominated.
        def vec(e):
            return (e.latency, e.cost.total, -e.headroom)

        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                va, vb = vec(a), vec(b)
                assert not (
                    all(x <= y for x, y in zip(va, vb))
                    and any(x < y for x, y in zip(va, vb))
                )
        # And every non-frontier finite design is dominated by some member.
        ids = {id(e) for e in frontier}
        for e in result.evaluations:
            if id(e) in ids or not math.isfinite(e.latency):
                continue
            assert any(
                all(x <= y for x, y in zip(vec(f), vec(e)))
                and any(x < y for x, y in zip(vec(f), vec(e)))
                for f in frontier
            )

    def test_json_round_trip(self):
        space = DesignSpace(
            families=(bft_space((16,)),),
            message_lengths=(16,),
            patterns=("uniform", "transpose"),
        )
        result = explore(space, small_requirements())
        blob = json.dumps(result.to_json())
        data = json.loads(blob)
        assert data["feasible_count"] == len(result.feasible)
        assert data["cheapest_feasible"]["family"] == "bft"
        assert all(ev["latency"] is not None for ev in data["evaluations"])

    def test_render_mentions_verdicts(self):
        space = DesignSpace(families=(bft_space((16,)),), message_lengths=(16,))
        text = explore(space, small_requirements()).render()
        assert "cheapest feasible" in text
        assert "largest feasible" in text
        assert "Pareto frontier" in text


class TestExplorerAgreesWithRun:
    """Explorer saturations are ``repro run``'s Eq. 26 search, bit for bit."""

    SHAPES = (
        dict(topology="bft", num_processors=16),
        dict(topology="generalized-fattree", num_processors=16, children=4, parents=3),
        dict(topology="hypercube", num_processors=16),
        dict(topology="kary-ncube", num_processors=8, radix=2),
        dict(topology="kary-ncube", num_processors=16, radix=4),
    )

    @pytest.mark.parametrize(
        "faults", [None, {"random_link_failures": 1, "seed": 7}], ids=["nominal", "seed7"]
    )
    @pytest.mark.parametrize(
        "shape",
        SHAPES,
        ids=[f"{s['topology']}-{s['num_processors']}" for s in SHAPES],
    )
    def test_saturation_equals_run(self, shape, faults):
        scenario = Scenario(
            **shape, message_flits=16, flit_load=0.02, sweep_points=0, faults=faults
        )
        grid = {k: (v,) for k, v in scenario.family_params().items()}
        space = DesignSpace(
            families=(FamilySpace.build(scenario.topology, **grid),),
            message_lengths=(16,),
        )
        req = small_requirements(
            survives_faults=0 if faults is None else 1, fault_seed=7
        )
        (ev,) = explore(space, req).evaluations
        try:
            record = run(scenario)
        except PartitionedNetworkError:
            assert faults is not None
            assert ev.degraded is None
            assert any(v.startswith("partitioned") for v in ev.violations)
            return
        metrics = ev.metrics if faults is None else ev.degraded
        assert metrics.saturation_flit_load == record.metrics["saturation"]["flit_load"]


class TestFaultVerdicts:
    def test_impossible_draw_is_a_memoized_violation(self):
        space = DesignSpace(families=(bft_space((16,)),), message_lengths=(16,))
        req = small_requirements(survives_faults=10_000, fault_seed=1)
        with METRICS.collect() as cold:
            (ev,) = explore(space, req).evaluations
        assert ev.degraded is None
        assert ev.violations == (
            "fault injection impossible: cannot fail 10000 links: "
            "only 16 eligible network links survive",
        )
        with METRICS.collect() as warm:
            (again,) = explore(space, req).evaluations
        assert again.violations == ev.violations
        assert cold.data["counters"]["design.fault_cache.misses"] == 1
        assert warm.data["counters"]["design.fault_cache.hits"] == 1
        assert "design.fault_cache.misses" not in warm.data["counters"]

    def test_partition_verdict_is_memoized(self):
        space = DesignSpace(
            families=(bft_space((16,)),), message_lengths=(16,), buffer_depths=(1, 4)
        )
        req = small_requirements(survives_faults=1, fault_seed=7)
        with METRICS.collect() as cold:
            first = explore(space, req)
        with METRICS.collect() as warm:
            second = explore(space, req)
        assert [e.as_json() for e in second.evaluations] == [
            e.as_json() for e in first.evaluations
        ]
        assert all(e.degraded is None for e in first.evaluations)
        # Buffer-depth twins share one degraded evaluation.
        assert cold.data["counters"]["design.fault_cache.misses"] == 1
        assert cold.data["counters"]["design.fault_cache.hits"] == 1
        assert warm.data["counters"]["design.fault_cache.hits"] == 2


class TestScalePerformance:
    def test_hundred_candidate_space_under_30s(self):
        """Acceptance: >= 100 candidates through the parallel + batch path in < 30 s."""
        space = DesignSpace(
            families=(
                bft_space((16, 64)),
                hypercube_space((4, 5)),
                generalized_fattree_space((4,), (2, 3), (2, 3)),
                kary_ncube_space((4,), (2, 3)),
            ),
            message_lengths=(8, 16, 32),
            patterns=("uniform", "hotspot", "transpose"),
            buffer_depths=(1, 2),
        )
        expansion = space.expand()
        assert len(expansion.candidates) >= 100
        start = time.perf_counter()
        result = explore(space, small_requirements(), processes=2)
        elapsed = time.perf_counter() - start
        assert len(result.evaluations) == len(expansion.candidates)
        assert result.cheapest_feasible is not None
        assert len(result.pareto()) >= 2
        assert elapsed < 30.0, f"exploration took {elapsed:.1f}s for {len(result.evaluations)} candidates"


class TestDesignExperiment:
    def test_runs_and_sizes_per_pattern(self):
        from repro.experiments import run_design_exploration

        result = run_design_exploration()
        text = result.render()
        assert "CM-5-class sizing" in text
        rows = result.sizing_rows()
        assert {r[0] for r in rows} == {"uniform", "hotspot", "transpose"}
        # Quick mode reaches at least a 64-PE machine under the budget.
        assert all(r[1] >= 64 for r in rows)
