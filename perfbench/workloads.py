"""The three in-process workloads: closed-form runs, fault-aware
exploration and simulator replications.

Each is a closed loop with one client: the next op starts when the
previous one returns.  An op is timed with nothing else inside the timed
region; its answer is checked right after.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import checks, generators
from .stats import median, median_hd, tail
from .layers import add_totals, install, per_layer_metrics, telemetry_totals
from .spans import OP, Patcher, SpanRecorder


@dataclass
class Pass:
    """One pass over a workload's op sequence."""

    items: list = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    work: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    #: The answer of the op replayed when the pass ends, if any.
    replay: Any = None

    def fail(self, op: int, message: str) -> None:
        self.failures.append(f"op {op}: {message}")


class Workload:
    """Shared loop: set-up, an untraced pass and, on request, a traced one."""

    name = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.reference = checks.load_reference(self.name)
        #: Answers of this run, in op order (``run.py --write-reference``).
        self.answers: dict[str, Any] = {}

    # Subclasses fill these in.
    def generate(self, seconds: float) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def call(self, item: Any, traced: bool) -> Any:
        raise NotImplementedError

    def record(self, p: Pass, i: int, item: Any, answer: Any) -> None:
        raise NotImplementedError

    def finish(self, p: Pass) -> None:
        """Checks that need the whole pass (e.g. a replay)."""

    def keep_answer(self, key: str, entry: Any) -> None:
        if len(self.answers) < checks.REFERENCE_ENTRIES:
            self.answers.setdefault(key, entry)

    #: Ops per timing block: an equally composed part of the op
    #: sequence (0 when the workload has none).
    block = 0

    def throughput(self, p: Pass) -> float:
        """Work per second over the median block of ops, so a burst of
        machine noise in one block does not move the figure; over the
        whole pass when it holds less than one block."""
        t, b = p.op_seconds, self.block
        blocks = [sum(t[i:i + b]) for i in range(0, len(t) - b + 1, b)] if b else []
        if not blocks:
            return p.work / sum(t)
        return p.work / len(t) * b / median(blocks)

    def latency_p50(self, p: Pass) -> float:
        """The median op time, s."""
        return median_hd(p.op_seconds)

    def text_lines(self, p: Pass) -> list[str]:
        """Report lines under the workload's own metric names."""
        return [
            f"  {'failed_ratio':<22} {len(p.failures) / max(p.attempted, 1):>12.6g} fraction"
            f" ({len(p.failures)} problems in {p.attempted} ops)"
        ]

    # --- running ----------------------------------------------------------------------

    def reset(self) -> None:
        """Drop the program's memo caches, so every set-up starts cold."""
        from repro import design
        from repro.design import families

        design.clear_metrics_cache()
        for value in vars(families).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def setup(self) -> list:
        self.warm_up()
        return self.generate(self.seconds)

    def run_pass(self, items: list, recorder: SpanRecorder | None = None) -> Pass:
        p = Pass(items=items)
        started = time.perf_counter()
        for i, item in enumerate(items):
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    answer = self.call(item, False)
                else:
                    with recorder.span(OP, op=i):
                        answer = self.call(item, True)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                p.op_seconds.append(time.perf_counter() - t0)
                p.fail(i, f"{type(exc).__name__}: {exc}")
                continue
            p.op_seconds.append(time.perf_counter() - t0)
            self.record(p, i, item, answer)
        p.wall_s = time.perf_counter() - started
        self.finish(p)
        return p

    def traced_pass(self, items: list) -> tuple[Pass, SpanRecorder]:
        recorder = SpanRecorder()
        patcher = Patcher()
        install(recorder, patcher)
        try:
            p = self.run_pass(items, recorder)
        finally:
            patcher.restore()
        return p, recorder

    def layer_report(self, untraced: Pass, traced: Pass, recorder: SpanRecorder) -> dict:
        extra = dict(traced.extra)
        extra["obs.trace_overhead"] = sum(traced.op_seconds) / sum(untraced.op_seconds) - 1.0
        extra["bench.failed_ratio"] = len(traced.failures) / max(traced.attempted, 1)
        extra["op.latency_tail_ms"] = 1e3 * tail(untraced.op_seconds)[0]
        return per_layer_metrics(recorder.spans, traced.counters, traced.attempted, extra)


def _scenario(kwargs: dict):
    from repro.runs import Scenario

    return Scenario(**kwargs)


class ClosedForm(Workload):
    """``repro.run`` over distinct uniform-traffic analytic scenarios."""

    name = "run_closed_form"
    #: One generator block: the same mix each time.
    block = len(generators.CLOSED_FORM_BLOCK)

    def generate(self, seconds: float) -> list:
        return [_scenario(kw) for kw in generators.closed_form_scenarios(self.seed, seconds)]

    def warm_up(self) -> None:
        import repro

        # One op per family and backend pays the lazy imports and first-call costs.
        for topology in generators.CLOSED_FORM_SIZES:
            for backend in ("batch", "model", "baseline"):
                repro.run(_scenario({"topology": topology, "num_processors": 16,
                                     "backend": backend, "sweep_points": 4}))

    def call(self, item, traced: bool):
        import repro

        return repro.run(item)

    def record(self, p: Pass, i: int, item, answer) -> None:
        p.work += 1
        add_totals(p.counters, telemetry_totals(answer.metrics["observability"]))
        add_totals(p.counters, {f"time.{k}": v for k, v in answer.timings.items()})
        self.keep_answer(item.key(), checks.closed_form_entry(answer.metrics))
        for problem in checks.closed_form(item, answer.metrics, self.reference):
            p.fail(i, problem)


class ExploreFaults(Workload):
    """Repeated ``explore`` calls with one seeded random link failure."""

    name = "explore_faults"

    def space(self):
        from repro.design import (
            DesignSpace,
            bft_space,
            generalized_fattree_space,
            hypercube_space,
            kary_ncube_space,
        )

        s = generators.EXPLORE_SPACE
        levels = [{16: 2, 64: 3, 256: 4}[n] for n in s["generalized-fattree"]]
        dims = [{16: 2, 64: 3, 256: 4}[n] for n in s["kary-ncube"]]
        cube = [n.bit_length() - 1 for n in s["hypercube"]]
        return DesignSpace(
            families=(
                bft_space(s["bft"]),
                hypercube_space(cube),
                generalized_fattree_space((4,), (2,), levels),
                kary_ncube_space((4,), dims),
            ),
            message_lengths=s["message_lengths"],
            patterns=s["patterns"],
        )

    def generate(self, seconds: float) -> list:
        self._space = self.space()
        # A timing block is one round: every failure of the round once.
        self.block = generators.explore_faults_per_round(seconds)
        return generators.explore_calls(self.seed, seconds)

    def warm_up(self) -> None:
        from repro import design

        # A fault-free exploration fills the per-size flow caches a
        # long-lived explorer keeps; fault-masked flows stay cold.
        design.clear_metrics_cache()
        design.explore(self.space(), design.Requirements(demand_flit_load=0.01, latency_slo=100.0))

    def requirements(self, item: generators.ExploreCall):
        from repro.design import Requirements

        return Requirements(
            demand_flit_load=item.demand_flit_load,
            latency_slo=item.latency_slo,
            min_headroom=item.min_headroom,
            survives_faults=1,
            fault_seed=item.fault_seed,
        )

    def call(self, item, traced: bool):
        from repro import design
        from repro.obs import METRICS

        req = self.requirements(item)
        design.clear_metrics_cache()
        if not traced:
            return design.explore(self._space, req), None
        with METRICS.collect() as telemetry:
            result = design.explore(self._space, req)
        return result, telemetry

    def record(self, p: Pass, i: int, item, answer) -> None:
        result, telemetry = answer
        p.work += len(result.evaluations)
        if telemetry is not None:
            add_totals(p.counters, telemetry_totals(telemetry.data))
        self.keep_answer(checks.explore_key(item), checks.explore_entry(result))
        for problem in checks.explore(item, result, self.reference):
            p.fail(i, problem)


class SimulateReplicas(Workload):
    """``repro.run`` on the simulate backend: event, flit and buffered."""

    name = "simulate_replicas"

    def fastest(self, p: Pass) -> list[float]:
        """Each stratum's fastest op, s.

        A block repeats every stratum with the same simulated cycles, so,
        as with ``timeit``, a slower repeat measures the host's
        interference, not the program.  The strata cost from 10 ms to
        0.5 s, so the repeats of the costly few otherwise decide the
        figures: with each stratum's median op instead, the spread of
        both figures over ten seeds on a shared two-core host was twice
        as wide.
        """
        by_stratum: dict[tuple, list[float]] = {}
        for item, t in zip(p.items, p.op_seconds):
            key = (item.topology, item.num_processors, item.pattern, item.simulator)
            by_stratum.setdefault(key, []).append(t)
        return [min(ts) for ts in by_stratum.values()]

    def throughput(self, p: Pass) -> float:
        """Scenarios per second of a block made of each stratum's fastest op."""
        fastest = self.fastest(p)
        return len(fastest) / sum(fastest)

    def latency_p50(self, p: Pass) -> float:
        """The median over strata of their fastest op, s."""
        return median_hd(self.fastest(p))

    def generate(self, seconds: float) -> list:
        return [_scenario(kw) for kw in generators.simulate_scenarios(self.seed, seconds)]

    def warm_up(self) -> None:
        import repro

        for sim in generators.SIMULATORS:
            repro.run(_scenario({"topology": "bft", "num_processors": 16, "backend": "simulate",
                                 "simulator": sim, "flit_load": 0.05, "replications": 1,
                                 "warmup_cycles": 200.0, "measure_cycles": 400.0}))

    def call(self, item, traced: bool):
        import repro

        return repro.run(item)

    def record(self, p: Pass, i: int, item, answer) -> None:
        p.work += 1
        add_totals(p.counters, telemetry_totals(answer.metrics["observability"]))
        point = answer.metrics["point"]
        cycles = (item.warmup_cycles + item.measure_cycles) * item.replications
        p.extra["simulated_cycles"] = p.extra.get("simulated_cycles", 0.0) + cycles
        err = abs(point["latency"] - point["model_prediction"]) / point["model_prediction"]
        p.extra["rel_err_sum"] = p.extra.get("rel_err_sum", 0.0) + err
        self.keep_answer(item.key(), checks.simulate_entry(answer.metrics))
        for problem in checks.simulate(item, answer.metrics, self.reference):
            p.fail(i, problem)
        if i == self.replay_index(p):
            p.replay = answer.metrics

    def text_lines(self, p: Pass) -> list[str]:
        cycles = p.extra.get("simulated_cycles", 0.0)
        return super().text_lines(p) + [
            f"  {'sim_kcycles_per_s':<22} {cycles / sum(p.op_seconds) / 1e3:>12.6g} kcycles/s",
            f"  {'model_sim_rel_err':<22} {p.extra['simulation.model_sim_rel_err']:>12.6g} fraction",
        ]

    def replay_index(self, p: Pass) -> int:
        return self.seed % len(p.items)

    def finish(self, p: Pass) -> None:
        import repro

        n = max(p.attempted, 1)
        p.extra["simulation.model_sim_rel_err"] = p.extra.get("rel_err_sum", 0.0) / n
        if p.replay is None:
            return
        # Seeded replications must replay to identical statistics.
        i = self.replay_index(p)
        for problem in checks.replay(p.replay, repro.run(p.items[i]).metrics):
            p.fail(i, problem)


WORKLOADS: dict[str, Callable[[int, float], Workload]] = {
    ClosedForm.name: ClosedForm,
    ExploreFaults.name: ExploreFaults,
    SimulateReplicas.name: SimulateReplicas,
}

__all__ = ["Pass", "WORKLOADS", "Workload"]
