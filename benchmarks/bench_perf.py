"""Bench PERF — engineering performance of the solver and simulators.

Unlike the reproduction benches (which time one full experiment), these are
conventional micro-benchmarks: pytest-benchmark repeats each operation and
reports distribution statistics.  They guard against performance
regressions in the hot paths identified by profiling (model sweeps inside
the saturation search; simulator event loops).

The batch-engine benches time a whole 64-point N=1024 load sweep solved in
one ``latency_batch`` NumPy pass and the vectorized saturation bracket; their
agreement with the scalar loop and bisection is gated bit-for-bit (and by
solve count) in ``tests/test_core_batch.py``.  ``test_batch_baseline_json``
additionally runs the headless suite from :mod:`run_benchmarks` and writes
``benchmarks/BENCH_perf.json`` so the medians are tracked across PRs.
"""

from __future__ import annotations

import numpy as np
from conftest import register_result

import run_benchmarks
from repro import (
    ButterflyFatTree,
    ButterflyFatTreeModel,
    SimConfig,
    Workload,
    simulate,
)
from repro.core import saturation_injection_rate
from repro.core.generic_model import bft_stage_graph


def test_model_solve_1024(benchmark):
    """One closed-form solve at the paper's headline size."""
    model = ButterflyFatTreeModel(1024)
    wl = Workload.from_flit_load(0.02, 32)
    result = benchmark(lambda: model.latency(wl))
    assert result > 0


def test_generic_solver_1024(benchmark):
    """The generic channel-graph solver on the same instance."""
    wl = Workload.from_flit_load(0.02, 32)
    result = benchmark(lambda: bft_stage_graph(1024, wl).latency())
    assert result > 0


def test_saturation_search_1024(benchmark):
    """Full Eq. 26 search at N=1024 (vectorized bracket by default)."""
    model = ButterflyFatTreeModel(1024)
    result = benchmark(lambda: saturation_injection_rate(model, 32).flit_load)
    assert 0.02 < result < 0.06


def test_batch_sweep_64pt_1024(benchmark):
    """One latency_batch pass over a 64-point load grid at N=1024."""
    model = ButterflyFatTreeModel(1024)
    rates = np.linspace(0.002, 0.05, 64) / 32
    latencies = benchmark(lambda: model.latency_batch(rates, 32))
    assert np.isfinite(latencies).any() and np.isinf(latencies).any()


def test_batch_baseline_json(benchmark):
    """Headless suite: refreshes the baseline.

    ``benchmarks/BENCH_perf.json`` is the single canonical baseline path —
    this test and an explicit ``python benchmarks/run_benchmarks.py`` run
    both write it, so there is exactly one perf trajectory to diff across
    PRs (run the perf bench deliberately; it updates the tracked file).
    """
    report = benchmark.pedantic(
        lambda: run_benchmarks.collect(repeats=3), rounds=1, iterations=1
    )
    path = run_benchmarks.write_baseline(report, run_benchmarks.DEFAULT_OUTPUT)
    register_result(path)


def test_topology_construction_1024(benchmark):
    """Wiring all 496 switches and ~4k links of the 1024-PE fat-tree."""
    topo = benchmark(lambda: ButterflyFatTree(1024))
    assert topo.num_links == 2 * sum(1024 // 2**l for l in range(5))


def test_event_sim_throughput(benchmark):
    """Event-driven simulator: short fixed workload on a 256-PE tree."""
    topo = ButterflyFatTree(256)
    wl = Workload.from_flit_load(0.04, 16)

    def run():
        cfg = SimConfig(warmup_cycles=200, measure_cycles=2000, seed=5)
        return simulate(topo, wl, cfg, keep_samples=False)

    result = benchmark(run)
    assert result.tagged_delivered > 0
