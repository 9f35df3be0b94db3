"""Bench VALIDATE — the analytical model against the simulators.

Runs the default validation cells of :mod:`repro.experiments.validate`
through the Scenario facade: every topology family, the non-uniform
patterns of a 64-PE fat-tree, and the event-driven against the
flit-level simulator on uniform fat-trees.  The two simulators implement
the same wormhole semantics with different mechanics, so where a cell
lists both their mean latencies must agree within a few percent.  Results
land in ``benchmarks/results/validate.txt``.
"""

from __future__ import annotations

import math

from conftest import register_result

from repro.experiments import run_validation, write_report


def test_validation(benchmark):
    """Model, baseline and simulators over the default cells."""
    result = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    path = write_report("validate", result.render())
    register_result(path)
    for row in result.rows:
        sc = row.scenario
        key = f"{sc.topology}_N{sc.num_processors}_{sc.pattern}"
        benchmark.extra_info[f"{key}_model_err"] = row.model_err
        if "flit" in row.sim_latency:
            flit_err = row.error(row.sim_latency["flit"])
            benchmark.extra_info[f"{key}_flit_err"] = flit_err
            assert math.isfinite(flit_err)
            assert abs(flit_err) < 0.04
