"""Tests for the saturation solver (Eq. 26) and the load-sweep helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    ButterflyFatTreeModel,
    ConfigurationError,
    LatencyCurve,
    SaturatedError,
    Workload,
)
from repro.core import (
    latency_sweep,
    load_grid_to_saturation,
    saturation_flit_load,
    saturation_injection_rate,
)
from repro.core.blocking import blocking_probability, blocking_probability_batch


class TestBlockingProbability:
    def test_single_server_exact_form(self):
        # m=1: P = 1 - (lam_i/lam_j) R.
        assert blocking_probability(1, 0.01, 0.04, 0.25) == pytest.approx(1 - 0.0625)

    def test_disabled_returns_one(self):
        assert blocking_probability(2, 0.01, 0.02, 0.9, enabled=False) == 1.0

    def test_zero_outgoing_rate(self):
        assert blocking_probability(1, 0.0, 0.0, 0.5) == 1.0

    def test_clamped_to_unit_interval(self):
        assert blocking_probability(4, 0.5, 0.5, 1.0) == 0.0
        assert 0.0 <= blocking_probability(2, 0.1, 0.3, 0.5) <= 1.0

    def test_decreases_with_servers(self):
        p1 = blocking_probability(1, 0.01, 0.05, 0.5)
        p2 = blocking_probability(2, 0.01, 0.05, 0.5)
        assert p2 < p1

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            blocking_probability(0, 0.1, 0.1, 0.5)
        with pytest.raises(ConfigurationError):
            blocking_probability(1, -0.1, 0.1, 0.5)
        with pytest.raises(ConfigurationError):
            blocking_probability(1, 0.1, 0.1, 1.5)

    def test_batch_broadcasts_per_transition_columns(self):
        # One row per transition: servers and R_{i|j} as columns.
        servers = np.array([[1], [2], [4]])
        routing = np.array([[0.25], [0.5], [1.0]])
        incoming = np.array([[0.01, 0.0], [0.01, 0.02], [0.5, 0.1]])
        outgoing = np.array([[0.04, 0.0], [0.05, 0.06], [0.5, 0.4]])
        got = blocking_probability_batch(servers, incoming, outgoing, routing)
        for t in range(3):
            for k in range(2):
                assert got[t, k] == blocking_probability(
                    int(servers[t, 0]),
                    float(incoming[t, k]),
                    float(outgoing[t, k]),
                    float(routing[t, 0]),
                )

    @pytest.mark.parametrize(
        "servers,routing",
        [
            (np.array([[1], [0]]), np.array([[0.5], [0.5]])),
            (np.array([[1.0], [2.0]]), np.array([[0.5], [0.5]])),
            (np.array([[1], [2]]), np.array([[0.5], [1.5]])),
            (np.array([[1], [2]]), np.array([[0.5], [np.nan]])),
        ],
    )
    def test_batch_rejects_bad_columns(self, servers, routing):
        rates = np.full((2, 3), 0.01)
        with pytest.raises(ConfigurationError):
            blocking_probability_batch(servers, rates, rates, routing)


class TestSaturation:
    def test_bracket_invariant(self):
        model = ButterflyFatTreeModel(256)
        res = saturation_injection_rate(model, 32)
        assert res.lower_bound <= res.injection_rate <= res.upper_bound
        assert model.is_stable(Workload(32, res.lower_bound))
        assert not model.is_stable(Workload(32, res.upper_bound))

    def test_bisection_tolerance(self):
        model = ButterflyFatTreeModel(64)
        res = saturation_injection_rate(model, 16, rel_tol=1e-8)
        assert (res.upper_bound - res.lower_bound) <= 1e-8 * res.upper_bound * 1.001

    def test_flit_load_consistency(self):
        model = ButterflyFatTreeModel(64)
        res = saturation_injection_rate(model, 32)
        assert res.flit_load == pytest.approx(res.injection_rate * 32)
        assert saturation_flit_load(model, 32) == pytest.approx(res.flit_load)

    def test_saturation_independent_of_message_length(self):
        # Structural scale-invariance: the model's saturation flit load is
        # identical across message lengths.
        model = ButterflyFatTreeModel(1024)
        sats = [saturation_flit_load(model, f) for f in (8, 16, 32, 64)]
        assert max(sats) - min(sats) < 1e-4 * max(sats)

    def test_saturation_decreases_with_size(self):
        sats = [
            saturation_flit_load(ButterflyFatTreeModel(n), 32)
            for n in (16, 64, 256, 1024)
        ]
        assert sats == sorted(sats, reverse=True)

    def test_figure3_saturation_region(self):
        # Figure 3's x-axis ends at 0.05 flits/cycle/PE with all curves
        # diverging inside the plot; the model's saturation must fall there.
        sat = saturation_flit_load(ButterflyFatTreeModel(1024), 16)
        assert 0.02 < sat < 0.05

    def test_starts_above_saturation(self):
        # Initial guess above saturation: the solver must shrink downwards.
        model = ButterflyFatTreeModel(1024)
        res = saturation_injection_rate(model, 32, initial_rate=1.0)
        assert model.is_stable(Workload(32, res.lower_bound))

    def test_workload_accessor(self):
        model = ButterflyFatTreeModel(64)
        res = saturation_injection_rate(model, 32)
        assert res.workload.message_flits == 32

    def test_never_stable_raises(self):
        class Never:
            def is_stable(self, workload):
                return False

        with pytest.raises(SaturatedError):
            saturation_injection_rate(Never(), 16)

    def test_always_stable_raises(self):
        class Always:
            def is_stable(self, workload):
                return True

        with pytest.raises(SaturatedError):
            saturation_injection_rate(Always(), 16)

    def test_rejects_bad_args(self):
        model = ButterflyFatTreeModel(16)
        with pytest.raises(ConfigurationError):
            saturation_injection_rate(model, 0)
        with pytest.raises(ConfigurationError):
            saturation_injection_rate(model, 16, rel_tol=0.0)
        with pytest.raises(ConfigurationError):
            saturation_injection_rate(model, 16, initial_rate=-1.0)


class TestSweep:
    def test_latency_sweep_matches_pointwise(self):
        model = ButterflyFatTreeModel(64)
        loads = [0.01, 0.05, 0.1]
        curve = latency_sweep(model, 32, loads)
        for x, y in zip(loads, curve.latencies):
            assert y == pytest.approx(model.latency_at_flit_load(x, 32))

    def test_curve_finite_mask(self):
        model = ButterflyFatTreeModel(64)
        curve = latency_sweep(model, 32, [0.01, 0.5])
        assert curve.finite_mask.tolist() == [True, False]
        assert curve.last_stable_load == pytest.approx(0.01)

    def test_curve_rows(self):
        model = ButterflyFatTreeModel(64)
        curve = latency_sweep(model, 32, [0.01])
        rows = curve.as_rows()
        assert len(rows) == 1 and rows[0][0] == pytest.approx(0.01)

    def test_sweep_rejects_empty(self):
        model = ButterflyFatTreeModel(64)
        with pytest.raises(ConfigurationError):
            latency_sweep(model, 32, [])

    def test_sweep_rejects_negative(self):
        model = ButterflyFatTreeModel(64)
        with pytest.raises(ConfigurationError):
            latency_sweep(model, 32, [-0.01])

    def test_curve_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyCurve("x", 16, np.array([1.0, 2.0]), np.array([1.0]))

    def test_load_grid_to_saturation(self):
        model = ButterflyFatTreeModel(64)
        grid = load_grid_to_saturation(model, 32, n_points=6, fraction=0.9)
        sat = saturation_flit_load(model, 32)
        assert len(grid) == 6
        assert grid[-1] == pytest.approx(0.9 * sat)
        assert grid[0] == pytest.approx(0.02 * sat)
        assert np.all(np.diff(grid) > 0)
        # every grid point must be stable
        for x in grid:
            assert math.isfinite(model.latency_at_flit_load(float(x), 32))

    def test_load_grid_rejects_bad_args(self):
        model = ButterflyFatTreeModel(64)
        with pytest.raises(ConfigurationError):
            load_grid_to_saturation(model, 32, n_points=1)
        with pytest.raises(ConfigurationError):
            load_grid_to_saturation(model, 32, fraction=1.5)

    @pytest.mark.parametrize("n_points", [10, 50, 64, 200])
    def test_load_grid_strictly_increasing_when_dense(self, n_points):
        """Regression: dense grids used to start at 0.02*sat > grid[1]
        (e.g. n_points=64 yielded [0.020, 0.0156, ...])."""
        model = ButterflyFatTreeModel(64)
        grid = load_grid_to_saturation(model, 32, n_points=n_points)
        assert len(grid) == n_points
        assert np.all(np.diff(grid) > 0)
        assert grid[0] > 0.0
        sat = saturation_flit_load(model, 32)
        assert grid[0] <= 0.02 * sat + 1e-15
