"""Run one benchmark workload and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: run_closed_form, explore_faults, serve_mixed, simulate_replicas
(see ``perfbench/README.md``).  ``--trace 0`` times the workload's op
sequence untraced and reports the end-to-end metrics; ``--trace 1`` runs
a sequence half as long untraced and then traced, and reports the
per-layer metrics.  A human-readable report goes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.

Everything the run writes goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("run_closed_form", "explore_faults", "serve_mixed", "simulate_replicas")
#: Set-up is repeated this many times per untraced run and its median
#: reported (a traced run reports no set-up time and sets up once).
SETUP_REPEATS = 3
#: End-to-end metrics with units, in report order.  The tail latency is
#: printed beside them but not part of the result: its run-to-run spread
#: on a shared two-core machine exceeds any bound the benchmark may set.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: What throughput means per workload (the name it is reported under).
THROUGHPUT_NAME = {
    "run_closed_form": "scenarios_per_s",
    "explore_faults": "candidates_per_s",
    "serve_mixed": "capacity_rps, closed loop",
    "simulate_replicas": "scenarios_per_s",
}


def parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's answers as the workload's reference answers",
    )
    return ap.parse_args(argv)


def program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(report: list[str], correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for line in report:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end(name: str, setup_s: float, throughput: float, p50_s: float,
               tail_samples_s: list[float], peak_rss: float,
               notes: dict[str, str] | None = None) -> tuple[dict, list[str]]:
    from perfbench.stats import tail

    tail_s, pct, n = tail(tail_samples_s)
    values = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_p50_ms": 1e3 * p50_s,
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss,
    }
    notes = {
        "throughput_per_s": f"({THROUGHPUT_NAME[name]})",
        **(notes or {}),
    }
    notes["latency_tail_ms"] = f"(p{pct:.4g} of {n} samples{notes.get('latency_tail_ms', '')})"
    lines = [
        f"  {k:<22} {values[k]:>12.6g} {unit:<8} {notes.get(k, '')}"
        for k, unit in END_TO_END[:3] + (("latency_tail_ms", "ms"),) + END_TO_END[3:]
    ]
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}, lines


def layer_lines(metrics: dict[str, float]) -> tuple[dict, list[str]]:
    from perfbench.layers import PER_LAYER

    out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    lines = [f"  {name:<32} {metrics[name]:>14.6g} {unit}" for name, unit in PER_LAYER]
    return out, lines


def attribution_lines(spans) -> list[str]:
    from perfbench.spans import layer_self_times

    per_layer, unattributed, op_s = layer_self_times(spans)
    parts = " + ".join(f"{k} {1e3 * v:.1f}" for k, v in sorted(per_layer.items()))
    total = sum(per_layer.values()) + unattributed
    return [
        f"  self times (ms): {parts} + unattributed {1e3 * unattributed:.1f}"
        f" = {1e3 * total:.1f}; traced op time {1e3 * op_s:.1f}"
    ]


# --- in-process workloads -----------------------------------------------------------


def run_in_process(args: argparse.Namespace, work_dir: Path) -> int:
    from perfbench import checks
    from perfbench.spans import write_chrome_trace
    from perfbench.workloads import WORKLOADS as CLASSES

    import repro  # noqa: F401 - set-up counts the program's imports
    import repro.design  # noqa: F401

    imported = time.perf_counter() - PROCESS_START
    wl = CLASSES[args.workload](args.seed, args.seconds)
    setups = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        t0 = time.perf_counter()
        wl.reset()
        items = wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(setups)

    report = [f"workload {args.workload} seed {args.seed}: set-up {setup_s:.3f} s "
              f"(imports {imported:.3f} s + median of {len(setups)})"]
    if args.trace == 0:
        p = wl.run_pass(items)
        metrics, lines = end_to_end(args.workload, setup_s, wl.throughput(p),
                                    wl.latency_p50(p), p.op_seconds, rss_mb())
        report.append(f"  {p.attempted} ops, {p.work:g} units of work in {p.wall_s:.3f} s")
        report += lines + wl.text_lines(p)
    else:
        items = wl.generate(args.seconds / 2)
        untraced = wl.run_pass(items)
        p, recorder = wl.traced_pass(items)
        layer = wl.layer_report(untraced, p, recorder)
        metrics, lines = layer_lines(layer)
        trace_path = work_dir.parent / "traces" / f"{args.workload}-{args.seed}.json"
        write_chrome_trace(recorder.spans, trace_path)
        report.append(f"  traced {p.attempted} ops; Chrome trace: {trace_path.relative_to(ROOT)}")
        report += attribution_lines(recorder.spans) + lines
    if args.write_reference:
        report.append(f"  reference written: {checks.write_reference(args.workload, args.seed, wl.answers)}")
    report += [f"  FAILED {f}" for f in p.failures[:20]]
    failed_ops = len({f.split(':', 1)[0] for f in p.failures})
    emit(report, not p.failures, p.attempted, failed_ops, metrics)
    return 0 if not p.failures else 1


# --- serve_mixed --------------------------------------------------------------------


def run_serve(args: argparse.Namespace, work_dir: Path) -> int:
    from perfbench import checks, generators, serve_bench
    from perfbench.layers import add_totals, per_layer_metrics, telemetry_totals
    from perfbench.spans import OP, read_spans, write_chrome_trace
    from perfbench.stats import median

    import repro.runs  # noqa: F401 - set-up counts the program's imports

    imported = time.perf_counter() - PROCESS_START
    wl = serve_bench.ServeMixed(args.seed, args.seconds, ROOT, work_dir)
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    setups, server = [], None
    try:
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server, _ = wl.start(traced=False)
            setups.append(time.perf_counter() - t0)
        setup_s = imported + statistics.median(setups)
        untraced = wl.run(server, seconds)
    finally:
        if server is not None:
            server.stop()
    report = [f"workload serve_mixed seed {args.seed}: set-up {setup_s:.3f} s "
              f"(imports {imported:.3f} s + median of {len(setups)}), "
              f"{serve_bench.slots()} requests in flight at most"]
    for s in untraced.phases:
        where = f"rate {s.rate:>4g}/s" if s.rate else "closed loop"
        report.append(
            f"  {where:<13} sent {len(s.outcomes):>5} failed {s.failed:>3} backlog {s.backlog:>3}"
            f"  p50 {median(s.latencies_ms()):8.3f} ms  tail {s.tail_ms():8.3f} ms"
            + (f"  {'within' if s.sustained() else 'over'} {serve_bench.TAIL_LIMIT_MS:g} ms"
               if s.rate else "")
        )
    failures = list(untraced.failures)
    attempted = sum(len(s.outcomes) for s in untraced.phases)
    if args.trace == 0:
        heavy = untraced.heavy
        moderate = untraced.windows_at(generators.SERVE_P50_RATE)
        # The median is taken below the knee and the tail at the heavy
        # rate, where queueing shows.
        metrics, lines = end_to_end(
            "serve_mixed", setup_s, serve_bench.capacity(untraced.chunks),
            serve_bench.windowed_p50(moderate),
            [o.latency for o in heavy.outcomes if o.error is None], untraced.peak_rss_mb,
            notes={"latency_p50_ms": f"(at {moderate[0].rate:g}/s, median of "
                                     f"{len(moderate)} windows' medians)",
                   "latency_tail_ms": f" at {heavy.rate:g}/s"})
        report += lines + [
            f"  {'latency_p50_ms.light':<22} {median(untraced.steps[0].latencies_ms()):>12.6g} ms"
            f"      (at {untraced.steps[0].rate:g}/s)",
            f"  {'latency_p50_ms.heavy':<22} {median(heavy.latencies_ms()):>12.6g} ms",
            f"  {'max_rate_rps':<22} {serve_bench.max_rate(untraced.steps):>12.6g} 1/s"
            f"      (ladder, tail within {serve_bench.TAIL_LIMIT_MS:g} ms)",
            f"  {'failed_ratio':<22} {len(failures) / max(attempted, 1):>12.6g} fraction",
        ]
    else:
        server, out = None, None
        try:
            server, out = wl.start(traced=True)
            traced = wl.run(server, seconds)
        finally:
            if server is not None:
                server.stop()
        failures += traced.failures
        attempted += sum(len(s.outcomes) for s in traced.phases)
        # Keep only the ops of the timed phases (not the set-up solves or
        # the closing replays of the checks).
        spans = read_spans(out)
        timed = {s.op for s in spans if s.name == OP and traced.start <= s.start <= traced.end}
        spans = [s for s in spans if s.op in timed]
        counters: dict[str, float] = {}
        for s in traced.phases:
            for o in s.outcomes:
                if o.error is None and o.how == "miss":
                    add_totals(counters, telemetry_totals(o.record["metrics"]["observability"]))
                    add_totals(counters, {f"time.{k}": v for k, v in o.record["timings"].items()})
        extra = serve_bench.stats_layer(traced.stats_before, traced.stats_after)
        extra.update(serve_bench.loadgen_layer(traced))

        def mean_latency(run) -> float:
            return statistics.mean(o.latency for s in run.phases for o in s.outcomes
                                   if o.error is None)

        extra["obs.trace_overhead"] = mean_latency(traced) / mean_latency(untraced) - 1.0
        extra["bench.failed_ratio"] = len(failures) / max(attempted, 1)
        layer = per_layer_metrics(spans, counters, len(timed), extra)
        metrics, lines = layer_lines(layer)
        trace_path = work_dir.parent / "traces" / f"serve_mixed-{args.seed}.json"
        write_chrome_trace(spans, trace_path)
        report.append(f"  traced {len(timed)} server ops; Chrome trace: "
                      f"{trace_path.relative_to(ROOT)}")
        report += attribution_lines(spans) + lines
    if args.write_reference:
        path = checks.write_reference("serve_mixed", args.seed, wl.answers)
        report.append(f"  reference written: {path}")
    report += [f"  FAILED {f}" for f in failures[:20]]
    emit(report, not failures, attempted, min(len(failures), attempted), metrics)
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not program_present():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        if args.workload == "serve_mixed":
            return run_serve(args, work_dir)
        return run_in_process(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
