"""Layer spans and per-layer metrics.

:func:`install` wraps the public functions each layer exposes (from the
benchmark's side; nothing under ``src/`` changes) so a traced op breaks
down into spans named ``<layer>.<what>``.  :func:`per_layer_metrics`
turns the spans of a traced pass, plus the program's own counters, into
the per-layer metrics ``BENCHMARK.json`` lists.  Every workload reports
every metric; a layer that does no work in a workload reports 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping

from .generators import SERVE_RATES
from .spans import OP, Patcher, Span, SpanRecorder, layer_self_times, self_times

#: The program's layers, named after its packages.
LAYERS = ("runs", "core", "traffic", "design", "simulation", "registry", "index", "serve")

#: Every per-layer metric with its unit, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("core.saturation_ms", "ms/op"),
    ("core.solve_points", "count/op"),
    ("core.solve_batches", "count/op"),
    ("core.useful_point_ratio", "fraction"),
    ("core.evaluate_ms", "ms/op"),
    ("core.graph_solve_ms", "ms/op"),
    ("core.fixed_point_iterations", "count/op"),
    ("traffic.flows_ms", "ms/op"),
    ("traffic.flows_calls", "count/op"),
    ("design.self_ms", "ms/op"),
    ("design.cache_hit_ratio", "fraction"),
    ("design.solves", "count/op"),
    ("runs.overhead_ms", "ms/op"),
    ("simulation.replications_ms", "ms/op"),
    ("simulation.host_us_per_cycle", "us"),
    ("simulation.kcycles_per_s", "kcycles/s"),
    ("simulation.model_sim_rel_err", "fraction"),
    ("simulation.replications_rescued", "count"),
    ("simulation.replications_failed", "count"),
    ("index.lookup_ms", "ms/op"),
    ("registry.store_ms", "ms/op"),
    ("registry.saves", "count"),
    ("index.refreshes", "count"),
    ("serve.hit_ratio", "fraction"),
    ("serve.coalesced", "count"),
    ("serve.errors", "count"),
    ("serve.request_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("loadgen.lag_ms", "ms"),
    ("loadgen.max_rate_rps", "1/s"),
    ("loadgen.heavy_p50_ms", "ms"),
    ("loadgen.heavy_tail_ms", "ms"),
    ("loadgen.light_p50_ms", "ms"),
    ("loadgen.light_tail_ms", "ms"),
    *(
        (f"loadgen.step{i}.{what}", "count")
        for i in range(len(SERVE_RATES))
        for what in ("sent", "ok", "failed", "backlog")
    ),
    *((f"loadgen.closed.{what}", "count") for what in ("sent", "ok", "failed")),
    *((f"{layer}.self_ms", "ms/op") for layer in LAYERS if layer != "design"),
    ("op.unattributed_ms", "ms/op"),
    ("op.traced_ms", "ms/op"),
    ("op.latency_tail_ms", "ms"),
    ("obs.trace_overhead", "fraction"),
    ("bench.failed_ratio", "fraction"),
)

FLOWS = "traffic.flows"


def install(recorder: SpanRecorder, patcher: Patcher, *, serve: bool = False) -> None:
    """Wrap each layer's public entry points with spans on ``recorder``."""
    from repro.core.generic_model import ChannelGraphModel
    from repro.runs import RunIndex, RunRegistry, Runner

    def span(name):
        return lambda fn: recorder.wrap(name, fn)

    patcher.method(Runner, "run", span("runs.run"))
    patcher.function("repro.runs.backends", "execute", span("runs.execute"))
    patcher.function("repro.core.throughput", "saturation_injection_rate", span("core.saturation"))
    patcher.method(ChannelGraphModel, "latency_batch", span("core.graph_solve"))
    patcher.method(ChannelGraphModel, "stability_batch", span("core.graph_solve"))
    for fn in ("bft_channel_flows", "masked_channel_flows", "single_path_flows"):
        patcher.function("repro.traffic.flows", fn, span(FLOWS))
    patcher.function("repro.design.search", "explore", span("design.explore"))
    patcher.function("repro.simulation.runner", "run_replications", span("simulation.replications"))
    if serve:
        from repro.serve import ScenarioCache

        patcher.method(ScenarioCache, "lookup", span("index.lookup"))
        patcher.method(ScenarioCache, "store", span("registry.store"))
        patcher.method(RunRegistry, "save", span("registry.save"))
        patcher.method(RunIndex, "refresh", span("index.refresh"))


def telemetry_totals(block: Mapping) -> dict[str, float]:
    """Counters plus histogram totals from one observability snapshot."""
    out = {k: float(v) for k, v in block.get("counters", {}).items()}
    for name, h in block.get("histograms", {}).items():
        out[name] = float(h.get("total", 0.0))
    return out


def add_totals(into: dict[str, float], more: Mapping[str, float]) -> None:
    for k, v in more.items():
        into[k] = into.get(k, 0.0) + v


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    spans: Iterable[Span],
    counters: Mapping[str, float],
    ops: int,
    extra: Mapping[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass over ``ops`` ops.

    ``counters`` are the program's own telemetry totals over the pass;
    ``extra`` carries workload-measured values (simulated cycles, the
    serve statistics, the tracing overhead); anything absent reads 0.
    """
    spans = [s for s in spans if s.op is not None]
    by_sid = {s.sid: s for s in spans}
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        parent = by_sid.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.name == s.name:
            continue  # a re-entrant call is already inside its caller's span
        total[s.name] += s.duration
        calls[s.name] += 1
    per_layer_self, unattributed, op_seconds = layer_self_times(spans)
    n = max(ops, 1)

    def per_op_ms(seconds: float) -> float:
        return 1e3 * seconds / n

    selfs = self_times(spans)
    run_self = sum(selfs[s.sid] for s in spans if s.name == "runs.run")
    points = counters.get("solve.points", 0.0)
    hits = counters.get("design.cache.hits", 0.0)
    misses = counters.get("design.cache.misses", 0.0)
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(
        {
            "core.saturation_ms": per_op_ms(total["core.saturation"]),
            "core.solve_points": points / n,
            "core.solve_batches": counters.get("solve.batch", 0.0) / n,
            "core.useful_point_ratio": (
                1.0 - counters.get("solve.saturated_points", 0.0) / points if points else 0.0
            ),
            "core.evaluate_ms": 1e3 * counters.get("time.evaluate_s", 0.0) / n,
            "core.graph_solve_ms": per_op_ms(total["core.graph_solve"]),
            "core.fixed_point_iterations": counters.get("fixed_point.iterations", 0.0) / n,
            "traffic.flows_ms": per_op_ms(total[FLOWS]),
            "traffic.flows_calls": calls[FLOWS] / n,
            "design.self_ms": per_op_ms(per_layer_self.get("design", 0.0)),
            "design.cache_hit_ratio": _ratio(hits, hits + misses),
            "design.solves": counters.get("design.solves", 0.0) / n,
            "runs.overhead_ms": per_op_ms(run_self),
            "simulation.replications_ms": per_op_ms(total["simulation.replications"]),
            "simulation.replications_rescued": counters.get("sim.replications.rescued", 0.0),
            "simulation.replications_failed": counters.get("sim.replications.failed", 0.0),
            "index.lookup_ms": per_op_ms(total["index.lookup"]),
            "registry.store_ms": per_op_ms(total["registry.store"]),
            "registry.saves": float(calls["registry.save"]),
            "index.refreshes": float(calls["index.refresh"]),
            "op.unattributed_ms": per_op_ms(unattributed),
            "op.traced_ms": per_op_ms(op_seconds),
        }
    )
    for layer in LAYERS:
        if layer != "design":
            out[f"{layer}.self_ms"] = per_op_ms(per_layer_self.get(layer, 0.0))
    cycles = extra.get("simulated_cycles", 0.0)
    rep_s = total["simulation.replications"]
    if cycles and rep_s:
        out["simulation.host_us_per_cycle"] = 1e6 * rep_s / cycles
        out["simulation.kcycles_per_s"] = cycles / rep_s / 1e3
    for name, value in extra.items():
        if name in out:
            out[name] = float(value)
    return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}


__all__ = [
    "LAYERS",
    "OP",
    "PER_LAYER",
    "add_totals",
    "install",
    "per_layer_metrics",
    "telemetry_totals",
]
