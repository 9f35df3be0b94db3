"""Tests for the observability layer: metrics, tracing, and telemetry plumbing."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.design.families import design_family
from repro.faults import FaultSpec
from repro.obs import (
    METRICS,
    MetricsRegistry,
    Tracer,
    current_tracer,
    trace_span,
    tracing,
)
from repro.runs import RunResult, Runner, Scenario, collect_stats


def tiny_scenario(**overrides) -> Scenario:
    defaults = dict(
        num_processors=16,
        message_flits=16,
        flit_load=0.04,
        sweep_points=0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestMetricsRegistry:
    def test_disabled_is_a_no_op(self):
        reg = MetricsRegistry()
        reg.add("c")
        reg.gauge("g", 3.0)
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}

    def test_enabled_records(self):
        reg = MetricsRegistry(enabled=True)
        reg.add("c")
        reg.add("c", 2.0)
        reg.gauge("g", 1.0)
        reg.gauge("g", 4.0)  # gauges keep the latest value
        for v in (1.0, 3.0, 2.0):
            reg.observe("h", v)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 4.0}
        h = snap["histograms"]["h"]
        assert h == {"count": 3, "total": 6, "mean": 2.0, "min": 1, "max": 3}

    def test_span_histograms_split_into_spans_block(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("span/run/build", 0.25)
        reg.observe("span/run/build", 0.75)
        snap = reg.snapshot()
        assert snap["histograms"] == {}
        s = snap["spans"]["run/build"]
        assert s["count"] == 2
        assert s["total_s"] == pytest.approx(1.0)
        assert s["mean_s"] == pytest.approx(0.5)
        assert s["max_s"] == pytest.approx(0.75)

    def test_collect_scopes_and_restores(self):
        reg = MetricsRegistry()  # disabled outside the scope
        with reg.collect() as got:
            assert reg.enabled
            reg.add("inside")
        assert not reg.enabled
        assert got.data["counters"] == {"inside": 1}
        reg.add("after")  # disabled again: must not record
        assert reg.snapshot()["counters"] == {}

    def test_collect_merges_back_into_recording_outer(self):
        reg = MetricsRegistry(enabled=True)
        reg.add("c")
        reg.observe("h", 5.0)
        with reg.collect() as got:
            reg.add("c", 2.0)
            reg.observe("h", 1.0)
        assert got.data["counters"] == {"c": 2}
        outer = reg.snapshot()
        assert outer["counters"] == {"c": 3}
        assert outer["histograms"]["h"]["count"] == 2
        assert outer["histograms"]["h"]["min"] == 1
        assert outer["histograms"]["h"]["max"] == 5

    def test_collect_nests(self):
        reg = MetricsRegistry()
        with reg.collect() as outer:
            reg.add("c")
            with reg.collect() as inner:
                reg.add("c")
            assert inner.data["counters"] == {"c": 1}
        assert outer.data["counters"] == {"c": 2}

    def test_reset_keeps_enabled_flag(self):
        reg = MetricsRegistry(enabled=True)
        reg.add("c")
        reg.reset()
        assert reg.enabled
        assert reg.snapshot()["counters"] == {}


class TestMetricsThreadSafety:
    """The REP202 fix: concurrent recording must never lose an event.

    Before the lock, eight threads doing read-modify-write on the same
    counter dict dropped increments, and a pool-thread ``collect()`` could
    tear a scope another thread held open (the registry swapped the shared
    dicts).  These tests pin exact totals under both shapes.
    """

    THREADS = 8
    PER_THREAD = 4000

    def test_eight_threads_exact_counter_totals(self):
        import threading

        reg = MetricsRegistry(enabled=True)
        start = threading.Barrier(self.THREADS)

        def hammer():
            start.wait()
            for i in range(self.PER_THREAD):
                reg.add("c")
                reg.add("weighted", 0.5)
                reg.observe("h", float(i % 7))

        workers = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        snap = reg.snapshot()
        total = self.THREADS * self.PER_THREAD
        assert snap["counters"]["c"] == total
        assert snap["counters"]["weighted"] == pytest.approx(0.5 * total)
        assert snap["histograms"]["h"]["count"] == total
        assert snap["histograms"]["h"]["min"] == 0
        assert snap["histograms"]["h"]["max"] == 6

    def test_pool_thread_collect_scopes_conserve_totals(self):
        """Concurrent per-thread scopes inside one outer scope: every event
        lands somewhere, and everything folds into the outer scope."""
        import threading

        reg = MetricsRegistry()  # disabled: only scopes force it on
        start = threading.Barrier(self.THREADS)
        own_counts: list[float] = []
        lock = threading.Lock()

        def solve_like():
            start.wait()
            with reg.collect() as mine:
                for _ in range(self.PER_THREAD):
                    reg.add("solve.step")
            with lock:
                own_counts.append(mine.data["counters"]["solve.step"])

        with reg.collect() as outer:
            workers = [
                threading.Thread(target=solve_like) for _ in range(self.THREADS)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        total = self.THREADS * self.PER_THREAD
        assert outer.data["counters"]["solve.step"] == total
        # Each scope saw at least its own events (a sibling closing while
        # it was the newest open scope may fold extras in, never out).
        assert len(own_counts) == self.THREADS
        assert all(c >= self.PER_THREAD for c in own_counts)
        assert not reg.enabled
        assert reg.snapshot()["counters"] == {}


class TestTracer:
    def test_deterministic_clock_gives_exact_timestamps(self):
        ticks = iter([10.0, 11.0, 12.5])
        tracer = Tracer(clock=lambda: next(ticks))  # origin reads 10.0
        with tracing(tracer):
            with trace_span("solve/fixed_point", points=4):
                pass
        (event,) = tracer.events
        assert event["name"] == "solve/fixed_point"
        assert event["cat"] == "solve"
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1e6)
        assert event["dur"] == pytest.approx(1.5e6)
        assert event["args"] == {"points": 4}

    def test_to_json_is_chrome_trace_format(self):
        tracer = Tracer()
        tracer.record("run/build", tracer.origin, tracer.origin + 0.1)
        data = tracer.to_json()
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["trace_unix_time"] > 0
        (event,) = data["traceEvents"]
        assert event["ph"] == "X" and event["dur"] >= 0

    def test_write_creates_parent_dirs(self, tmp_path):
        tracer = Tracer()
        tracer.record("run/build", tracer.origin, tracer.origin + 0.1)
        out = tracer.write(tmp_path / "deep" / "trace.json")
        loaded = json.loads(out.read_text())
        assert [e["name"] for e in loaded["traceEvents"]] == ["run/build"]

    def test_tracing_installs_and_restores(self):
        assert current_tracer() is None
        with tracing() as tracer:
            assert current_tracer() is tracer
            with tracing() as inner:
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_trace_span_is_shared_null_when_unobserved(self):
        # No active tracer, metrics disabled: the span must be the shared
        # no-op object — the disabled-by-default overhead contract.
        assert not METRICS.enabled
        assert trace_span("a") is trace_span("b", arg=1)

    def test_spans_feed_metrics_without_a_tracer(self):
        with METRICS.collect() as got:
            with trace_span("solve/stage_graph"):
                pass
        assert got.data["spans"]["solve/stage_graph"]["count"] == 1


class TestRunTelemetry:
    def test_run_result_carries_observability_block(self):
        r = Runner().run(tiny_scenario())
        obs = r.metrics["observability"]
        assert obs["counters"]["solve.batch"] >= 1
        assert obs["counters"]["solve.points"] >= 1
        for name in ("run/batch", "run/build", "run/saturation", "run/evaluate"):
            assert name in obs["spans"], name
        assert RunResult.from_json(r.to_json()) == r

    def test_observability_block_round_trips_non_finite(self):
        r = RunResult.for_metrics(
            {
                "observability": {
                    "counters": {"fixed_point.exhausted": 1},
                    "gauges": {"design.cache.latency_entries": 12},
                    "histograms": {
                        "fixed_point.residual": {
                            "count": 2,
                            "total": math.inf,
                            "mean": math.inf,
                            "min": 0.5,
                            "max": math.inf,
                        },
                        "weird": {
                            "count": 1,
                            "total": math.nan,
                            "mean": math.nan,
                            "min": math.nan,
                            "max": math.nan,
                        },
                    },
                    "spans": {"run/build": {"count": 1, "total_s": 0.1,
                                            "mean_s": 0.1, "max_s": 0.1}},
                }
            },
            kind="bench",
        )
        back = RunResult.from_json(r.to_json())
        assert back == r
        h = back.metrics["observability"]["histograms"]
        assert h["fixed_point.residual"]["total"] == math.inf
        assert math.isnan(h["weird"]["mean"])

    def test_model_and_batch_backends_report_identical_counters(self):
        # ``model`` is answered by the batch engine's code, so the solver
        # counters must match exactly (span durations obviously differ).
        sc = tiny_scenario(topology="hypercube")
        results = {}
        for backend in ("model", "batch"):
            obs = Runner().run(sc.with_backend(backend)).metrics["observability"]
            results[backend] = obs
        assert results["model"]["counters"] == results["batch"]["counters"]
        model_hist = results["model"]["histograms"]
        batch_hist = results["batch"]["histograms"]
        assert sorted(model_hist) == sorted(batch_hist)
        for name in model_hist:
            assert model_hist[name]["count"] == batch_hist[name]["count"], name

    def test_stage_graph_counts_saturated_points(self):
        # The stage-graph engine counts points past saturation like the
        # closed-form engines do (hypercube: a ChannelGraphModel).
        from repro.core import saturation_injection_rate

        model = design_family("hypercube").evaluator({"dimension": 4}, None, 16)
        sat = saturation_injection_rate(model, 16).injection_rate
        with METRICS.collect() as got:
            lat = model.latency_batch(sat * np.array([0.5, 0.9, 1.5, 2.0, 4.0]), 16)
        assert np.isfinite(lat).tolist() == [True, True, False, False, False]
        assert got.data["counters"]["solve.points"] == 5
        assert got.data["counters"]["solve.saturated_points"] == 3

    def test_faulted_torus_records_fixed_point_telemetry(self):
        # The fault-masked torus stage graph is cyclic, so the solver runs
        # the fixed-point iteration and its convergence telemetry must land
        # in the collected scope (one cheap one-point solve; the full
        # near-saturation run is exercised by the CI obs-smoke job).
        fam = design_family("kary-ncube")
        evaluator = fam.evaluator(
            {"radix": 3, "dimensions": 2},
            None,
            16,
            faults=FaultSpec(dead_links=("up:0:1",)),
        )
        with METRICS.collect() as got:
            latency = float(
                np.asarray(evaluator.latency_batch(np.array([0.04 / 16]), 16))[0]
            )
        assert latency > 0
        counters = got.data["counters"]
        assert counters["fixed_point.solves"] >= 1
        hist = got.data["histograms"]
        assert hist["fixed_point.iterations"]["count"] >= 1
        assert hist["fixed_point.residual"]["max"] >= 0
        assert "solve/fixed_point" in got.data["spans"]
        assert "solve/stage_graph" in got.data["spans"]


class TestStats:
    def _record(self, counters=None, spans=None, histograms=None):
        obs = {
            "counters": counters or {},
            "gauges": {},
            "histograms": histograms or {},
            "spans": spans or {},
        }
        return RunResult.for_metrics({"observability": obs}, kind="bench")

    def test_collect_stats_aggregates(self):
        records = [
            self._record(
                counters={"solve.batch": 2},
                histograms={"fixed_point.iterations":
                            {"count": 2, "total": 10, "mean": 5, "min": 3, "max": 7}},
                spans={"run/build": {"count": 1, "total_s": 0.2,
                                     "mean_s": 0.2, "max_s": 0.2}},
            ),
            self._record(
                counters={"solve.batch": 3, "design.solves": 1},
                histograms={"fixed_point.iterations":
                            {"count": 1, "total": 20, "mean": 20,
                             "min": 20, "max": 20}},
                spans={"run/build": {"count": 2, "total_s": 0.4,
                                     "mean_s": 0.2, "max_s": 0.3}},
            ),
            RunResult.for_metrics({"no": "telemetry"}, kind="bench"),
        ]
        report = collect_stats(records, source="unit")
        assert report.runs == 3
        assert report.instrumented == 2
        assert report.counters["solve.batch"] == {"total": 5.0, "runs": 2.0}
        assert report.counters["design.solves"]["runs"] == 1.0
        h = report.histograms["fixed_point.iterations"]
        assert h["count"] == 3.0 and h["min"] == 3.0 and h["max"] == 20.0
        assert h["mean"] == pytest.approx(10.0)
        s = report.spans["run/build"]
        assert s["count"] == 3.0
        assert s["total_s"] == pytest.approx(0.6)
        assert s["max_s"] == pytest.approx(0.3)
        assert s["mean_s"] == pytest.approx(0.2)
        text = report.render()
        assert "solve.batch" in text and "run/build" in text
        assert report.to_json()["instrumented"] == 2

    def test_collect_stats_skips_malformed_blocks(self):
        records = [
            RunResult.for_metrics({"observability": "not-a-mapping"}, kind="bench"),
            self._record(counters={"ok": 1, "bad": "nope"}),
        ]
        report = collect_stats(records)
        assert report.instrumented == 1
        assert list(report.counters) == ["ok"]

    def test_render_notes_missing_telemetry(self):
        report = collect_stats([RunResult.for_metrics({}, kind="bench")])
        assert "no observability blocks" in report.render()


class TestObsCli:
    def test_run_trace_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        code = main(
            ["run", "--topology", "bft", "-n", "16", "--points", "0",
             "--trace", str(trace_path)]
        )
        assert code == 0
        capsys.readouterr()
        data = json.loads(trace_path.read_text())
        assert data["displayTimeUnit"] == "ms"
        names = {e["name"] for e in data["traceEvents"]}
        assert {"run/build", "run/saturation", "run/evaluate"} <= names
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in data["traceEvents"])

    def test_run_table_shows_phase_timings(self, capsys):
        from repro.cli import main

        assert main(["run", "--topology", "bft", "-n", "16", "--points", "0"]) == 0
        out = capsys.readouterr().out
        for key in ("time.build_s", "time.saturation_s", "time.evaluate_s",
                    "time.total_s"):
            assert key in out, key

    def test_runs_stats_cli(self, tmp_path, capsys):
        from repro.cli import main

        registry = str(tmp_path)
        assert (
            main(["run", "--topology", "bft", "-n", "16", "--points", "0",
                  "--save", "--registry", registry])
            == 0
        )
        capsys.readouterr()
        assert main(["runs", "stats", "--registry", registry]) == 0
        out = capsys.readouterr().out
        assert "1 with telemetry" in out
        assert "solve.batch" in out
        assert main(["runs", "stats", "--registry", registry, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["solve.batch"]["runs"] == 1
