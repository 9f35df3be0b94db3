"""The ``run_benchmarks.py --check`` counter gate (no benches are timed)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import run_benchmarks  # noqa: E402


def _report(quick: bool, **counters) -> dict:
    return {"quick": quick, "benches": {"design_explore": {"counters": counters}}}


def test_equal_counters_pass():
    counters = {"solve.batch": 36, "solve.points": 1520, "design.solves": 6}
    assert run_benchmarks.counter_regressions(
        _report(True, **counters), _report(True, **counters)
    ) == []


def test_deterministic_increase_is_reported():
    baseline = _report(True, **{"solve.batch": 36, "fixed_point.iterations": 10})
    run = _report(True, **{"solve.batch": 37, "fixed_point.iterations": 11})
    problems = run_benchmarks.counter_regressions(run, baseline)
    assert len(problems) == 2
    assert "design_explore: solve.batch rose from 36 to 37" in problems


def test_counter_missing_from_baseline_counts_as_zero():
    problems = run_benchmarks.counter_regressions(
        _report(True, **{"fixed_point.exhausted": 1}), _report(True)
    )
    assert problems == ["design_explore: fixed_point.exhausted rose from 0 to 1"]


def test_other_counters_and_new_benches_are_not_gated():
    baseline = _report(True, **{"solve.saturated_points": 1})
    run = _report(True, **{"solve.saturated_points": 9, "serve.cache.hits": 3})
    run["benches"]["brand_new"] = {"counters": {"solve.batch": 5}}
    assert run_benchmarks.counter_regressions(run, baseline) == []


def test_baseline_of_the_other_mode_is_refused(tmp_path, capsys):
    path = tmp_path / "full.json"
    path.write_text(json.dumps(_report(False)))
    with pytest.raises(ValueError, match="quick=False"):
        run_benchmarks.load_check_baseline(path, quick=True)
    # The CLI refuses before running any bench (usage error, exit 2).
    with pytest.raises(SystemExit) as exc:
        run_benchmarks.main(["--quick", "--no-registry", "--check", str(path)])
    assert exc.value.code == 2
    assert "quick=False" in capsys.readouterr().err


def test_committed_quick_baseline_is_a_quick_report():
    path = Path(run_benchmarks.__file__).with_name("BENCH_quick.json")
    baseline = run_benchmarks.load_check_baseline(path, quick=True)
    assert "stage_graph_wide_256pt" in baseline["benches"]


def test_cli_exits_1_on_a_counter_increase(tmp_path, monkeypatch, capsys):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(_report(True, **{"solve.points": 100})))
    run = _report(True, **{"solve.points": 101})
    run["benches"]["design_explore"]["median_s"] = 0.1
    run["derived"] = {}
    monkeypatch.setattr(run_benchmarks, "collect", lambda **kwargs: run)
    argv = ["--quick", "--no-registry", "--output", str(tmp_path / "out.json")]
    assert run_benchmarks.main(argv + ["--check", str(path)]) == 1
    assert "solve.points rose from 100 to 101" in capsys.readouterr().out
    path.write_text(json.dumps(run))
    assert run_benchmarks.main(argv + ["--check", str(path)]) == 0


def test_flow_traces_are_gated():
    problems = run_benchmarks.counter_regressions(
        _report(True, **{"flows.traces": 4}), _report(True)
    )
    assert problems == ["design_explore: flows.traces rose from 0 to 4"]


def test_faulted_explore_bench_traces_each_question_once():
    from repro.design import families
    from repro.obs import METRICS

    families._cached_flows.cache_clear()
    families._cached_masked_flows.cache_clear()
    run = run_benchmarks.bench_design_explore_faults(run_benchmarks.BenchConfig.quick())
    traces = []
    for _ in range(2):
        with METRICS.collect() as telemetry:
            run()
        traces.append(telemetry.data.get("counters", {}).get("flows.traces", 0))
    # Cold: three fault-free hotspot traces (the uniform nominal models
    # are closed forms) and six masked ones, four of which partition
    # (bft 16 and hypercube 4).  Warm: every answer, each partition
    # verdict included, comes from the flows caches.
    assert traces == [9, 0]
    assert "design_explore_faults" in run_benchmarks.BENCHES
