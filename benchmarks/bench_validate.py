"""Bench VALIDATE — the analytical model against the simulators.

Runs the cell lists of :mod:`repro.experiments.validate` through the
Scenario facade, one test (and one ``benchmarks/results/*.txt`` table)
per list:

* ``validate.txt`` — the default cells: every topology family, the
  non-uniform patterns of a 64-PE fat-tree, and the event-driven against
  the flit-level simulator on uniform fat-trees.  The two simulators
  implement the same wormhole semantics with different mechanics, so
  where a cell lists both their mean latencies must agree within a few
  percent;
* ``scaling.txt`` — the fat-tree from 16 to 1024 PEs, Section 3.6's
  "networks with up to 1024 processing nodes";
* ``generalized.txt`` — (c, p) fat-trees with M/G/p up channels, the
  conclusion's "more than two servers";
* ``other_networks.txt`` — the general model on the hypercube against the
  Draper–Ghosh-style baseline (the abstract's "other networks"), and the
  Dally torus at low load.
"""

from __future__ import annotations

import math

import numpy as np
from conftest import register_result

from repro.experiments import (
    generalized_cells,
    other_networks_cells,
    run_validation,
    scaling_cells,
    write_report,
)


def _validate(benchmark, name: str, cells=None):
    """Run one cell list, write its table under ``name``, return the result."""
    result = benchmark.pedantic(
        run_validation,
        kwargs={} if cells is None else {"cells": cells()},
        rounds=1,
        iterations=1,
    )
    register_result(write_report(name, result.render()))
    return result


def _worst_model_err(benchmark, result) -> float:
    worst = max(
        (abs(r.model_err) for r in result.rows if math.isfinite(r.model_err)),
        default=0.0,
    )
    benchmark.extra_info["worst_abs_rel_err"] = worst
    return worst


def test_validation(benchmark):
    """Model, baseline and simulators over the default cells."""
    result = _validate(benchmark, "validate")
    for row in result.rows:
        sc = row.scenario
        key = f"{sc.topology}_N{sc.num_processors}_{sc.pattern}"
        benchmark.extra_info[f"{key}_model_err"] = row.model_err
        if "flit" in row.sim_latency:
            flit_err = row.error(row.sim_latency["flit"])
            benchmark.extra_info[f"{key}_flit_err"] = flit_err
            assert math.isfinite(flit_err)
            assert abs(flit_err) < 0.04


def test_scaling(benchmark):
    """Model must track simulation at every size and load fraction."""
    result = _validate(benchmark, "scaling", scaling_cells)
    worst = _worst_model_err(benchmark, result)
    assert worst < 0.12, f"worst relative error {worst:.1%}"


def test_generalized(benchmark):
    """Every (c, p) family member must validate within a few percent."""
    result = _validate(benchmark, "generalized", generalized_cells)
    worst = _worst_model_err(benchmark, result)
    assert worst < 0.08, f"worst relative error {worst:.1%}"
    # Up-link redundancy must buy saturation throughput monotonically.
    first = result.rows[0].scenario
    sat_by_parents = {
        r.scenario.parents: r.saturation_flit_load
        for r in result.rows
        if r.scenario.children == 4 and r.scenario.levels == first.levels
    }
    sats = [sat_by_parents[p] for p in sorted(sat_by_parents)]
    assert sats == sorted(sats)


def test_other_networks(benchmark):
    """The corrected general model must beat the uncorrected baseline."""
    result = _validate(benchmark, "other_networks", other_networks_cells)
    hypercube = [r for r in result.rows if r.scenario.topology == "hypercube"]
    gen = [abs(r.model_err) for r in hypercube if math.isfinite(r.model_err)]
    base = [abs(r.baseline_err) for r in hypercube if math.isfinite(r.baseline_err)]
    benchmark.extra_info["hypercube_general_mean_err"] = float(np.mean(gen))
    benchmark.extra_info["hypercube_baseline_mean_err"] = (
        float(np.mean(base)) if base else math.inf
    )
    assert float(np.mean(gen)) < 0.08
    assert float(np.mean(gen)) < (float(np.mean(base)) if base else math.inf)
    # Torus cells must be deadlock-free at these low loads: a stable
    # simulate run has no censored tagged message.
    torus = [r for r in result.rows if r.scenario.topology == "kary-ncube"]
    assert torus and all(math.isfinite(r.reference_latency) for r in torus)
