"""Headless performance benchmark runner.

Runs the engineering micro-benchmarks (no pytest, no simulators) and writes
the canonical perf baseline ``benchmarks/BENCH_perf.json`` — median
wall-clock seconds per bench plus derived throughput and speedup ratios — so each PR
leaves a machine-readable perf trajectory to compare against:

    PYTHONPATH=src python benchmarks/run_benchmarks.py

The same report is also persisted through the run registry (a ``bench``
:class:`repro.RunResult` under ``--registry``, default
``benchmarks/results/runs``), so perf baselines line up next to scenario
runs and diff with ``repro runs diff <id-or-latest> benchmarks/BENCH_perf.json``.

``--quick`` shrinks the grids (256-PE sweeps, a smaller design space) for
CI smoke runs; pair it with ``--output`` to keep the committed baseline
untouched.

``--check BASELINE`` gates the deterministic work counters
(``solve.batch``, ``solve.points``, ``fixed_point.*``, ``design.solves``,
``flows.traces``) against an earlier report: any increase in any bench
exits 1.  Wall time is not gated here (``perfbench/`` judges it).  A baseline must have been
recorded in the same mode, so ``--quick`` runs check against the committed
``benchmarks/BENCH_quick.json``:

    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick \
        --output /tmp/bench.json --check benchmarks/BENCH_quick.json

The solver benches time a 64-point N=1024 load sweep solved in one
``latency_batch`` pass, the vectorized Eq. 26 saturation search and the
design-space explorer's candidate throughput (candidates evaluated per
second, cold metrics cache); ``design_explore_faults`` prices the same
space under one seeded link failure.  ``stage_graph_wide_1pt`` /
``_256pt`` time ``stability_batch`` on two wide pattern graphs (the 512-stage hotspot
hypercube and the 816-stage transpose fat-tree) at 1 and 256 points, which
separates the stage graph's per-stage cost from its per-point cost.  That
the batch sweep equals a scalar ``latency`` loop bit-for-bit, and that the
vectorized saturation search needs fewer solves than the scalar bisection,
is gated deterministically by ``tests/test_core_batch.py`` rather than
timed here.  The serve/registry entries (from :mod:`bench_serve`) track the
scenario service: a cache hit versus a cold solve, and a selective
indexed registry query versus the linear JSONL scan.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import ButterflyFatTree, ButterflyFatTreeModel, Workload
from repro.core.generic_model import bft_stage_graph
from repro.obs import METRICS
from repro.core.throughput import saturation_injection_rate
from repro.traffic.spec import HotspotSpec, TransposeSpec
from repro.design import (
    DesignSpace,
    Requirements,
    bft_space,
    clear_metrics_cache,
    design_family,
    explore,
    hypercube_space,
)

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_perf.json"

#: Counters a code change may not increase (``--check``): they count solver
#: work and flow traces, and a given bench does the same work on every run.
DETERMINISTIC_COUNTERS = (
    "solve.batch",
    "solve.points",
    "design.solves",
    "flows.traces",
)
DETERMINISTIC_PREFIX = "fixed_point."


@dataclass(frozen=True)
class BenchConfig:
    """Grid sizes shared by the benches (``quick`` shrinks them for CI)."""

    sweep_points: int = 64
    sweep_flits: int = 32
    sweep_processors: int = 1024
    design_bft_sizes: tuple[int, ...] = (16, 64)
    design_hypercube_dims: tuple[int, ...] = (4, 5)
    design_flits: tuple[int, ...] = (16, 32)
    design_patterns: tuple[str, ...] = ("uniform", "hotspot")
    registry_records: int = 10_000
    repeats: int = 5

    @classmethod
    def quick(cls) -> "BenchConfig":
        return cls(
            sweep_points=16,
            sweep_processors=256,
            design_bft_sizes=(16, 64),
            design_hypercube_dims=(4,),
            design_flits=(16,),
            design_patterns=("uniform", "hotspot"),
            registry_records=2_000,
            repeats=2,
        )


def _sweep_rates(cfg: BenchConfig) -> np.ndarray:
    """Injection rates spanning zero load to past saturation."""
    return np.linspace(0.002, 0.05, cfg.sweep_points) / cfg.sweep_flits


def bench_model_solve(cfg: BenchConfig) -> Callable[[], object]:
    model = ButterflyFatTreeModel(cfg.sweep_processors)
    wl = Workload.from_flit_load(0.02, cfg.sweep_flits)
    return lambda: model.latency(wl)


def bench_batch_sweep(cfg: BenchConfig) -> Callable[[], object]:
    model = ButterflyFatTreeModel(cfg.sweep_processors)
    rates = _sweep_rates(cfg)
    return lambda: model.latency_batch(rates, cfg.sweep_flits)


def bench_saturation_vectorized(cfg: BenchConfig) -> Callable[[], object]:
    model = ButterflyFatTreeModel(cfg.sweep_processors)
    return lambda: saturation_injection_rate(model, cfg.sweep_flits).flit_load


def bench_generic_graph(cfg: BenchConfig) -> Callable[[], object]:
    wl = Workload.from_flit_load(0.02, cfg.sweep_flits)
    return lambda: bft_stage_graph(cfg.sweep_processors, wl).latency()


def _wide_stage_graphs(points: int) -> Callable[[], object]:
    """``stability_batch`` on the hc6 hotspot and bft256 transpose graphs."""
    wl = Workload.from_flit_load(0.02, 16)
    graphs = (
        design_family("hypercube").evaluator(
            {"dimension": 6}, HotspotSpec(fraction=0.2), 16
        ),
        design_family("bft").evaluator({"processors": 256}, TransposeSpec(), 16),
    )
    loads = np.linspace(0.1, 1.0, points) * wl.injection_rate
    return lambda: [graph.stability_batch(loads) for graph in graphs]


def bench_stage_graph_wide_1pt(cfg: BenchConfig) -> Callable[[], object]:
    return _wide_stage_graphs(1)


def bench_stage_graph_wide_256pt(cfg: BenchConfig) -> Callable[[], object]:
    return _wide_stage_graphs(256)


def bench_topology_build(cfg: BenchConfig) -> Callable[[], object]:
    return lambda: ButterflyFatTree(cfg.sweep_processors)


def design_space_for(cfg: BenchConfig) -> DesignSpace:
    """The design space the explorer bench searches."""
    return DesignSpace(
        families=(
            bft_space(cfg.design_bft_sizes),
            hypercube_space(cfg.design_hypercube_dims),
        ),
        message_lengths=cfg.design_flits,
        patterns=cfg.design_patterns,
    )


def bench_design_explore(cfg: BenchConfig) -> Callable[[], object]:
    """Full exploration, cold metrics cache each run.

    Flow propagation stays cached across runs (it is keyed per
    size/pattern, not per run), so this times the evaluation pipeline —
    batched latency solves, vectorized saturation searches, costing and
    selection — exactly what repeated explorations pay.
    """
    space = design_space_for(cfg)
    requirements = Requirements(demand_flit_load=0.02, latency_slo=75.0)

    def run() -> object:
        clear_metrics_cache()
        return explore(space, requirements)

    return run


def bench_design_explore_faults(cfg: BenchConfig) -> Callable[[], object]:
    """The explorer bench's space priced under one seeded link failure.

    Cold metrics cache each run, as in ``design_explore``.  Fault seed 2
    partitions the 16-PE fat-tree and the hypercube but not the 64-PE
    fat-tree, so a run asks both kinds of fault-masked flow question; the
    flows cache answers both (a partition verdict included), so the
    instrumented pass traces nothing (``flows.traces`` 0).
    """
    space = design_space_for(cfg)
    requirements = Requirements(
        demand_flit_load=0.02, latency_slo=75.0, survives_faults=1, fault_seed=2
    )

    def run() -> object:
        clear_metrics_cache()
        return explore(space, requirements)

    return run


def bench_serve_cold_solve(cfg: BenchConfig) -> Callable[[], object]:
    """A fresh solve of the service's bench scenario (the cache-miss cost)."""
    import bench_serve

    return bench_serve.cold_solve_bench()


def bench_serve_cached_lookup(cfg: BenchConfig) -> Callable[[], object]:
    """A cache hit against a large registry: index lookup + one record read."""
    import bench_serve

    return bench_serve.cached_solve_bench(
        bench_serve.seeded_registry(cfg.registry_records)
    )


def bench_registry_query_indexed(cfg: BenchConfig) -> Callable[[], object]:
    """Selective label query through the SQLite index."""
    import bench_serve

    return bench_serve.indexed_query_bench(
        bench_serve.seeded_registry(cfg.registry_records)
    )


def bench_registry_query_scan(cfg: BenchConfig) -> Callable[[], object]:
    """The same query as a linear JSONL scan (every record parsed)."""
    import bench_serve

    return bench_serve.scan_query_bench(
        bench_serve.seeded_registry(cfg.registry_records)
    )


BENCHES: dict[str, Callable[[BenchConfig], Callable[[], object]]] = {
    "model_solve": bench_model_solve,
    "batch_sweep": bench_batch_sweep,
    "saturation_vectorized": bench_saturation_vectorized,
    "generic_graph": bench_generic_graph,
    "stage_graph_wide_1pt": bench_stage_graph_wide_1pt,
    "stage_graph_wide_256pt": bench_stage_graph_wide_256pt,
    "topology_build": bench_topology_build,
    "design_explore": bench_design_explore,
    "design_explore_faults": bench_design_explore_faults,
    "serve_cold_solve": bench_serve_cold_solve,
    "serve_cached_lookup": bench_serve_cached_lookup,
    "registry_query_indexed": bench_registry_query_indexed,
    "registry_query_scan": bench_registry_query_scan,
}


def time_median(fn: Callable[[], object], *, repeats: int = 5, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` timed runs."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def collect(*, repeats: int | None = None, quick: bool = False) -> dict:
    """Run every bench and return the report mapping (see module docstring)."""
    cfg = BenchConfig.quick() if quick else BenchConfig()
    if repeats is not None:
        cfg = dataclasses.replace(cfg, repeats=repeats)
    benches = {}
    for name, setup in BENCHES.items():
        fn = setup(cfg)
        entry = {"median_s": time_median(fn, repeats=cfg.repeats)}
        # One extra instrumented pass (outside the timed runs, so the
        # medians stay at disabled-observability cost) records how much
        # solver work each bench actually does — a perf regression shows
        # up as "same counters, more seconds" vs "more solves".
        with METRICS.collect() as telemetry:
            fn()
        counters = dict(telemetry.data.get("counters", {}))
        iterations = telemetry.data.get("histograms", {}).get(
            "fixed_point.iterations"
        )
        if iterations is not None:
            counters["fixed_point.iterations"] = iterations["total"]
        entry["counters"] = {
            key: counters[key]
            for key in sorted(counters)
            if key.startswith(
                (
                    "solve.",
                    "fixed_point.",
                    "design.",
                    "flows.",
                    "serve.",
                    "index.",
                    "registry.",
                )
            )
        }
        benches[name] = entry
    n_candidates = len(design_space_for(cfg).candidates())
    derived = {
        "design_candidates_per_s": (
            n_candidates / benches["design_explore"]["median_s"]
        ),
        "serve_cache_speedup": (
            benches["serve_cold_solve"]["median_s"]
            / benches["serve_cached_lookup"]["median_s"]
        ),
        "index_query_speedup": (
            benches["registry_query_scan"]["median_s"]
            / benches["registry_query_indexed"]["median_s"]
        ),
    }
    return {
        "quick": quick,
        "sweep_points": cfg.sweep_points,
        "message_flits": cfg.sweep_flits,
        "num_processors": cfg.sweep_processors,
        "design_candidates": n_candidates,
        "registry_records": cfg.registry_records,
        "repeats": cfg.repeats,
        "benches": benches,
        "derived": derived,
    }


def write_baseline(report: dict, output: Path) -> Path:
    """Write the JSON baseline (used headlessly and from bench_perf.py)."""
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return output


def _deterministic(counters: dict) -> dict:
    return {
        key: value
        for key, value in counters.items()
        if key in DETERMINISTIC_COUNTERS or key.startswith(DETERMINISTIC_PREFIX)
    }


def counter_regressions(report: dict, baseline: dict) -> list[str]:
    """One line per deterministic counter that grew over ``baseline``.

    Benches missing from either report are skipped (a new bench has no
    baseline yet); a counter missing from the baseline counts as 0.
    """
    problems = []
    for name, entry in sorted(report["benches"].items()):
        if name not in baseline["benches"]:
            continue
        before = _deterministic(baseline["benches"][name].get("counters", {}))
        after = _deterministic(entry.get("counters", {}))
        for key in sorted(after):
            if after[key] > before.get(key, 0):
                problems.append(
                    f"{name}: {key} rose from {before.get(key, 0)} to {after[key]}"
                )
    return problems


def load_check_baseline(path: Path, *, quick: bool) -> dict:
    """Read a ``--check`` baseline; refuse one recorded in the other mode."""
    baseline = json.loads(Path(path).read_text())
    if bool(baseline.get("quick")) != quick:
        raise ValueError(
            f"{path} was recorded with quick={bool(baseline.get('quick'))}, "
            f"but this run has quick={quick}; counters are only comparable "
            "between runs of the same mode"
        )
    return baseline


def record_in_registry(report: dict, registry_dir: Path | None) -> str:
    """Persist the report as a ``bench`` run record; returns the run id."""
    from repro.runs import RunRegistry, RunResult

    label = "bench-quick" if report.get("quick") else "bench"
    result = RunResult.for_metrics(report, kind="bench", label=label)
    registry = RunRegistry(registry_dir)
    registry.save(result)
    return result.run_id


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON baseline path"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed runs per bench (median kept)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grids for CI smoke runs (256-PE sweeps, reduced design space)",
    )
    parser.add_argument(
        "--registry",
        type=Path,
        default=None,
        help="run-registry directory the report is also recorded in "
        "(default: benchmarks/results/runs); --no-registry skips it",
    )
    parser.add_argument(
        "--no-registry",
        action="store_true",
        help="do not record the report in the run registry",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="exit 1 if a deterministic solver counter rose over BASELINE "
        "(a report of the same --quick mode)",
    )
    args = parser.parse_args(argv)
    baseline = None
    if args.check is not None:
        try:
            baseline = load_check_baseline(args.check, quick=args.quick)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    report = collect(repeats=args.repeats, quick=args.quick)
    path = write_baseline(report, args.output)
    print(f"wrote {path}")
    if not args.no_registry:
        run_id = record_in_registry(report, args.registry)
        print(f"recorded in run registry as {run_id}")
    for name, entry in sorted(report["benches"].items()):
        print(f"  {name:30s} {entry['median_s'] * 1e3:10.3f} ms")
    for name, value in sorted(report["derived"].items()):
        unit = "x" if name.endswith("_speedup") else "/s"
        print(f"  {name:30s} {value:10.1f}{unit}")
    if baseline is not None:
        problems = counter_regressions(report, baseline)
        for line in problems:
            print(f"counter regression: {line}")
        if problems:
            return 1
        print(f"counters: no increase over {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
