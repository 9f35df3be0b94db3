"""Tests for the batch solver engine (core/batch.py and friends).

The engine's contract: evaluating a whole load grid in one NumPy pass gives
exactly the same numbers as looping the scalar solver over the grid —
identical finite/inf masks, matching values at every finite point — while
performing far fewer model solves in the saturation search.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    BatchSolution,
    ButterflyFatTreeModel,
    ConfigurationError,
    GeneralizedFatTreeModel,
    ModelVariant,
    Stage,
    Transition,
    Workload,
)
from repro.core import (
    latency_sweep,
    load_grid_to_saturation,
    saturation_injection_rate,
)
from repro.core.batch import as_injection_rates, charged_wait
from repro.core.generic_model import (
    ChannelGraphModel,
    bft_stage_graph,
    hypercube_stage_graph,
)
from repro.design import design_family
from repro.errors import ConvergenceError
from repro.obs import METRICS
from repro.traffic import make_spec
from repro.util.fixedpoint import fixed_point_batch


def _grid_past_saturation(n_points: int = 64, flits: int = 32) -> np.ndarray:
    """Injection rates spanning zero load to past N=1024 saturation."""
    return np.linspace(0.002, 0.05, n_points) / flits


class TestBftBatchEquivalence:
    def test_64_point_grid_matches_scalar_loop(self):
        model = ButterflyFatTreeModel(1024)
        rates = _grid_past_saturation()
        batch = model.latency_batch(rates, 32)
        scalar = np.array([model.latency(Workload(32, float(x))) for x in rates])
        finite = np.isfinite(scalar)
        # identical inf/finite masks ...
        assert np.array_equal(np.isfinite(batch), finite)
        assert finite.any() and (~finite).any()
        # ... and <= 1e-9 relative error at every finite point.
        rel = np.abs(batch[finite] - scalar[finite]) / scalar[finite]
        assert np.max(rel) <= 1e-9

    def test_one_point_batch_is_bit_identical_to_scalar(self):
        model = ButterflyFatTreeModel(256)
        wl = Workload.from_flit_load(0.03, 16)
        batch = model.latency_batch(np.array([wl.injection_rate]), 16)
        assert float(batch[0]) == model.latency(wl)

    def test_batch_matches_under_every_variant(self):
        rates = np.linspace(0.0001, 0.0012, 16)
        for variant in (
            ModelVariant.paper(),
            ModelVariant.no_multiserver(),
            ModelVariant.no_blocking_correction(),
            ModelVariant.naive(),
            ModelVariant.deterministic_scv(),
            ModelVariant.exponential_scv(),
            ModelVariant.conditional_up(),
        ):
            model = ButterflyFatTreeModel(256, variant)
            batch = model.latency_batch(rates, 32)
            scalar = np.array([model.latency(Workload(32, float(x))) for x in rates])
            assert np.array_equal(batch, scalar), variant.label

    def test_solve_batch_details_match_scalar_solution(self):
        model = ButterflyFatTreeModel(1024)
        rates = np.array([0.0002, 0.0008])
        batch = model.solve_batch(rates, 32)
        for k, rate in enumerate(rates):
            sol = model.solve(Workload(32, float(rate)))
            for name in ("rate", "down_service", "down_wait", "up_service", "up_wait"):
                assert np.array_equal(
                    batch.details[name][:, k], getattr(sol, name)
                ), name

    def test_stability_batch_matches_is_stable(self):
        model = ButterflyFatTreeModel(256)
        rates = _grid_past_saturation(24)
        mask = model.stability_batch(rates, 32)
        expected = np.array(
            [model.is_stable(Workload(32, float(x))) for x in rates]
        )
        assert np.array_equal(mask, expected)


class TestGeneralizedBatchEquivalence:
    @pytest.mark.parametrize("family", [(4, 2, 4), (4, 3, 3), (8, 2, 2), (2, 2, 6)])
    def test_batch_matches_scalar_loop(self, family):
        c, p, n = family
        model = GeneralizedFatTreeModel(c, p, n)
        rates = np.linspace(0.0, 0.02, 24)
        batch = model.latency_batch(rates, 32)
        scalar = np.array([model.latency(Workload(32, float(x))) for x in rates])
        assert np.array_equal(batch, scalar)


class TestGenericGraphBatch:
    def test_bft_graph_batch_matches_rebuilt_graphs(self):
        wl = Workload.from_flit_load(0.01, 32)
        graph = bft_stage_graph(256, wl)
        rates = np.linspace(0.0001, 0.0026, 12)
        batch = graph.latency_batch(rates)
        scalar = np.array(
            [bft_stage_graph(256, Workload(32, float(x))).latency() for x in rates]
        )
        finite = np.isfinite(scalar)
        assert np.array_equal(np.isfinite(batch), finite)
        rel = np.abs(batch[finite] - scalar[finite]) / scalar[finite]
        assert np.max(rel) <= 1e-9

    def test_hypercube_graph_batch(self):
        wl = Workload.from_flit_load(0.02, 16)
        graph = hypercube_stage_graph(6, wl)
        batch = graph.latency_batch(np.array([wl.injection_rate]))
        assert float(batch[0]) == graph.latency()

    def test_latency_batch_rejects_wrong_flits(self):
        graph = bft_stage_graph(64, Workload.from_flit_load(0.01, 32))
        with pytest.raises(ConfigurationError):
            graph.latency_batch(np.array([0.001]), message_flits=16)

    def test_latency_batch_rejects_zero_reference_rate(self):
        graph = bft_stage_graph(64, Workload(32, 0.0))
        with pytest.raises(ConfigurationError):
            graph.latency_batch(np.array([0.001]))

    def test_solve_is_cached_per_instance(self):
        graph = bft_stage_graph(64, Workload.from_flit_load(0.02, 32))
        calls = {"n": 0}
        original = type(graph).solve_batch

        def counting(self, scales):
            calls["n"] += 1
            return original(self, scales)

        type(graph).solve_batch = counting
        try:
            first = graph.solve()
            # latency() and injection_service() reuse the cached solution.
            graph.latency()
            graph.injection_service()
            assert graph.solve() is first
            assert calls["n"] == 1
        finally:
            type(graph).solve_batch = original


class TestCyclicGraphFixedPoint:
    """Coverage for the _solve_cyclic path (no ready-made builder is cyclic)."""

    @staticmethod
    def _ring_graph(rate: float, flits: int = 8) -> ChannelGraphModel:
        """Two mutually-dependent stages plus an ejection stage."""
        stages = [
            Stage("eject", rate_per_server=rate),
            Stage(
                "a",
                rate_per_server=rate,
                transitions=(
                    Transition("b", 0.5),
                    Transition("eject", 0.5),
                ),
            ),
            Stage(
                "b",
                rate_per_server=rate,
                transitions=(
                    Transition("a", 0.5),
                    Transition("eject", 0.5),
                ),
            ),
        ]
        return ChannelGraphModel(
            stages,
            message_flits=flits,
            entry="a",
            average_distance=2.5,
        )

    def test_graph_is_cyclic(self):
        assert not self._ring_graph(0.001).is_acyclic

    def test_low_load_converges_to_finite_latency(self):
        graph = self._ring_graph(0.001)
        latency = graph.latency()
        assert math.isfinite(latency)
        # Zero-load floor: service time >= message length, Eq. 2 pipeline term.
        assert latency >= 8 + 2.5 - 1.0

    def test_latency_increases_with_load(self):
        lats = [self._ring_graph(r).latency() for r in (0.0005, 0.002, 0.008)]
        assert lats == sorted(lats)
        assert all(math.isfinite(x) for x in lats)

    def test_saturated_ring_diverges(self):
        assert math.isinf(self._ring_graph(0.2).latency())

    def test_batch_matches_scalar_across_the_knee(self):
        reference = 0.002
        graph = self._ring_graph(reference)
        rates = np.array([0.0005, 0.002, 0.008, 0.2])
        batch = graph.latency_batch(rates)
        scalar = np.array([self._ring_graph(float(r)).latency() for r in rates])
        finite = np.isfinite(scalar)
        assert np.array_equal(np.isfinite(batch), finite)
        rel = np.abs(batch[finite] - scalar[finite]) / scalar[finite]
        assert np.max(rel) <= 1e-7  # fixed points agree to iteration tolerance

    @staticmethod
    def _solve_with_budget(monkeypatch, max_iter: int):
        """Solve the ring with a small fixed-point budget; returns the number
        of fixed-point runs, the telemetry and the raised error (or None)."""
        import repro.core.generic_model as generic_model

        calls = {"n": 0}
        original = generic_model.fixed_point_batch

        def budgeted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **{**kwargs, "max_iter": max_iter})

        monkeypatch.setattr(generic_model, "fixed_point_batch", budgeted)
        error = None
        with METRICS.collect() as telemetry:
            try:
                TestCyclicGraphFixedPoint._ring_graph(0.002).solve_batch(
                    np.array([1.0, 2.0])
                )
            except ConvergenceError as exc:
                error = exc
        return calls["n"], telemetry.data["counters"], error

    def test_exhausted_budget_below_residual_floor_is_accepted_in_one_run(
        self, monkeypatch
    ):
        runs, counters, error = self._solve_with_budget(monkeypatch, 40)
        assert error is None
        assert runs == 1
        assert counters["fixed_point.exhausted"] == 1
        assert counters["fixed_point.exhausted_accepted"] == 1

    def test_exhausted_budget_above_residual_floor_names_the_channel(
        self, monkeypatch
    ):
        runs, counters, error = self._solve_with_budget(monkeypatch, 5)
        assert runs == 1
        assert counters["fixed_point.exhausted"] == 1
        assert "fixed_point.exhausted_accepted" not in counters
        assert error is not None
        assert error.worst_channel in {"a", "b"}
        assert f"worst channel {error.worst_channel!r}" in str(error)
        assert error.iterations == 5 and error.residual > 1e-6


class TestFixedPointBatch:
    def test_freezes_diverging_columns_only(self):
        # Column 0 contracts to 1.0; column 1 blows up immediately.
        def step(x):
            out = np.empty_like(x)
            out[:, 0] = 0.5 * x[:, 0] + 0.5
            out[:, 1] = np.inf
            return out

        result = fixed_point_batch(step, np.ones((3, 2)), tol=1e-12)
        assert result.converged
        assert np.allclose(result.value[:, 0], 1.0)
        assert np.all(np.isinf(result.value[:, 1]))

    def test_matches_scalar_fixed_point_semantics_for_single_column(self):
        def step(x):
            return 0.5 * x + 1.0

        result = fixed_point_batch(step, np.zeros((1, 1)), tol=1e-12)
        assert result.value[0, 0] == pytest.approx(2.0, rel=1e-10)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            fixed_point_batch(lambda x: x, np.zeros(3))


class TestBatchSolutionType:
    def test_masks_and_units(self):
        model = ButterflyFatTreeModel(64)
        rates = np.array([0.001, 0.2])
        sol = model.solve_batch(rates, 16)
        assert isinstance(sol, BatchSolution)
        assert len(sol) == 2 and sol.n_points == 2
        assert np.array_equal(sol.flit_loads, rates * 16)
        assert sol.finite_mask.tolist() == [True, False]
        assert sol.saturated_mask.tolist() == [False, True]
        assert sol.stable_mask.tolist() == [True, False]

    def test_as_curve_round_trip(self):
        model = ButterflyFatTreeModel(64)
        sol = model.solve_batch(np.array([0.001, 0.002]), 16)
        curve = sol.as_curve("series")
        assert curve.label == "series"
        assert np.array_equal(curve.latencies, sol.latencies)
        assert sol.as_rows() == curve.as_rows()

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            BatchSolution(
                message_flits=16,
                injection_rates=np.array([0.1, 0.2]),
                injection_service=np.array([1.0]),
                injection_wait=np.array([0.0, 0.0]),
                latencies=np.array([1.0, 2.0]),
                average_distance=3.0,
            )

    def test_as_injection_rates_validation(self):
        assert as_injection_rates(0.01).tolist() == [0.01]
        with pytest.raises(ConfigurationError):
            as_injection_rates([])
        with pytest.raises(ConfigurationError):
            as_injection_rates([-0.1])
        with pytest.raises(ConfigurationError):
            as_injection_rates([np.inf])
        with pytest.raises(ConfigurationError):
            as_injection_rates([[0.1, 0.2]])

    def test_charged_wait_guards_zero_times_inf(self):
        p = np.array([0.0, 0.5])
        w = np.array([np.inf, np.inf])
        out = charged_wait(p, w)
        assert out[0] == 0.0 and np.isinf(out[1])

    def test_latency_batch_rejects_bad_flits(self):
        model = ButterflyFatTreeModel(64)
        with pytest.raises(ConfigurationError):
            model.latency_batch(np.array([0.001]), 0)


class TestSweepBatchDispatch:
    def test_model_sweep_matches_plain_loop(self):
        model = ButterflyFatTreeModel(256)
        loads = [0.01, 0.04, 0.08, 0.5]
        via_model = latency_sweep(model, 32, loads)
        loop = [model.latency(Workload.from_flit_load(x, 32)) for x in loads]
        assert np.array_equal(via_model.latencies, np.array(loop))


class TestVectorizedSaturation:
    class CountingModel(ButterflyFatTreeModel):
        """Counts batched solves — the unit of model work after the refactor."""

        def __init__(self, n):
            super().__init__(n)
            self.solve_calls = 0

        def solve_batch(self, rates, flits):
            self.solve_calls += 1
            return super().solve_batch(rates, flits)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_same_flit_load_with_fewer_solves(self, n):
        model = self.CountingModel(n)
        vectorized = saturation_injection_rate(model, 32)
        vectorized_solves = model.solve_calls
        model.solve_calls = 0
        scalar = saturation_injection_rate(model, 32, stable=model.is_stable)
        scalar_solves = model.solve_calls
        assert vectorized.flit_load == pytest.approx(scalar.flit_load, rel=1e-6)
        assert vectorized_solves < scalar_solves

    def test_bracket_invariant_holds(self):
        model = ButterflyFatTreeModel(256)
        res = saturation_injection_rate(model, 32)
        assert res.lower_bound <= res.injection_rate <= res.upper_bound
        assert model.is_stable(Workload(32, res.lower_bound))
        assert not model.is_stable(Workload(32, res.upper_bound))
        assert (res.upper_bound - res.lower_bound) <= 1e-6 * res.upper_bound * 1.001

    def test_start_above_saturation_shrinks_down(self):
        model = ButterflyFatTreeModel(1024)
        res = saturation_injection_rate(model, 32, initial_rate=1.0)
        assert model.is_stable(Workload(32, res.lower_bound))

    def test_batchless_model_auto_detects_scalar_path(self):
        class PredicateOnly:
            def __init__(self, threshold):
                self.threshold = threshold

            def is_stable(self, workload):
                return workload.injection_rate < self.threshold

        model = PredicateOnly(0.01)
        res = saturation_injection_rate(model, 32)
        assert res.injection_rate == pytest.approx(0.01, rel=1e-5)

    def test_stable_predicate_overrides_the_batched_search(self):
        # A custom predicate wins over the model's stability_batch.
        res = saturation_injection_rate(
            ButterflyFatTreeModel(64), 32, stable=lambda wl: wl.injection_rate < 0.01
        )
        assert res.injection_rate == pytest.approx(0.01, rel=1e-5)


class TestLoadGridPointCount:
    @pytest.mark.parametrize("with_spec", [True, False])
    @pytest.mark.parametrize("n_points", [2, 6, 10])
    def test_always_honors_n_points(self, with_spec, n_points):
        spec = make_spec("tornado") if with_spec else None
        model = design_family("bft").evaluator({"processors": 64}, spec, 32)
        grid = load_grid_to_saturation(model, 32, n_points=n_points)
        assert len(grid) == n_points
        assert np.all(np.diff(grid) > 0)
        assert np.all(grid > 0)

    def test_top_of_range_unchanged(self):
        model = ButterflyFatTreeModel(64)
        sat = saturation_injection_rate(model, 32).flit_load
        grid = load_grid_to_saturation(model, 32, n_points=5, fraction=0.9)
        assert grid[-1] == pytest.approx(0.9 * sat)
