"""Tests for the prior-art baseline models (Dally, Draper-Ghosh, naive BFT)."""

from __future__ import annotations

import math

import pytest

from repro import (
    ButterflyFatTreeModel,
    ConfigurationError,
    Hypercube,
    KaryNCube,
    SimConfig,
    Workload,
    simulate,
)
from repro.baselines import (
    DallyKaryNCubeModel,
    naive_bft_model,
)
from repro.core.throughput import saturation_injection_rate
from repro.design.evaluate import point_latency
from repro.design.families import design_family
from repro.topology.properties import kary_ncube_average_distance


class TestDally:
    def test_zero_load_closed_form(self):
        m = DallyKaryNCubeModel(8, 2)
        assert m.latency(Workload(32, 0.0)) == pytest.approx(
            32 + kary_ncube_average_distance(8, 2) - 1
        )

    def test_channel_rate(self):
        m = DallyKaryNCubeModel(8, 3)
        assert m.channel_rate(0.01) == pytest.approx(0.01 * 3.5)

    def test_monotone_in_load(self):
        m = DallyKaryNCubeModel(8, 2)
        lats = [m.latency_at_flit_load(x, 32) for x in (0.01, 0.05, 0.1, 0.2)]
        finite = [x for x in lats if math.isfinite(x)]
        assert finite == sorted(finite)

    @pytest.mark.parametrize("radix", range(2, 9))
    def test_saturation_flit_load_closed_form(self, radix):
        """The Eq. 26 search finds the analytic capacity: the busier of
        the network channel (rate ``lambda_0 (k-1)/2``) and the terminal
        channel (rate ``lambda_0``) reaches unit utilization at flit load
        ``1 / max((k-1)/2, 1)``."""
        m = DallyKaryNCubeModel(radix, 2)
        capacity = 1.0 / max((radix - 1) / 2.0, 1.0)
        sat = saturation_injection_rate(m, 32).flit_load
        assert sat == pytest.approx(capacity, rel=1e-6)
        # just below is stable, just above is not
        assert m.is_stable(Workload.from_flit_load(0.95 * capacity, 32))
        assert not m.is_stable(Workload.from_flit_load(1.05 * capacity, 32))

    def test_latency_inf_past_saturation(self):
        m = DallyKaryNCubeModel(4, 2)
        assert math.isinf(m.latency_at_flit_load(0.9, 32))

    def test_against_simulation_at_low_load(self, torus8x2):
        """Low load only: wormhole tori deadlock without virtual channels,
        which our simulators intentionally do not model."""
        m = DallyKaryNCubeModel(8, 2)
        for load in (0.005, 0.015):
            wl = Workload.from_flit_load(load, 32)
            res = simulate(
                torus8x2,
                wl,
                SimConfig(warmup_cycles=1000, measure_cycles=6000, seed=3),
            )
            assert res.censored_tagged == 0
            # Dally is a coarse model: demand ballpark agreement (25%).
            assert m.latency(wl) == pytest.approx(res.latency_mean, rel=0.25)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            DallyKaryNCubeModel(1, 2)
        with pytest.raises(ConfigurationError):
            DallyKaryNCubeModel(4, 0)

    def test_describe(self):
        assert "k=8" in DallyKaryNCubeModel(8, 2).describe()


def _hypercube(dimension: int, flits: int, *, baseline: bool):
    """The hypercube family's model: Draper–Ghosh-style when ``baseline``."""
    return design_family("hypercube").evaluator(
        {"dimension": dimension}, None, flits, baseline=baseline
    )


class TestDraperGhosh:
    def test_zero_load_matches_general(self):
        wl = Workload(16, 0.0)
        dg = point_latency(_hypercube(5, 16, baseline=True), wl)
        gen = point_latency(_hypercube(5, 16, baseline=False), wl)
        assert dg == pytest.approx(gen)

    def test_uncorrected_overestimates(self):
        # Without the blocking correction every hop charges the full queue
        # wait, so the baseline's latency must exceed the corrected model's.
        wl = Workload.from_flit_load(0.2, 32)
        dg = point_latency(_hypercube(6, 32, baseline=True), wl)
        gen = point_latency(_hypercube(6, 32, baseline=False), wl)
        assert dg > gen

    def test_corrected_tracks_simulation(self, cube6):
        wl = Workload.from_flit_load(0.2, 32)
        res = simulate(
            cube6, wl, SimConfig(warmup_cycles=1500, measure_cycles=8000, seed=4)
        )
        gen = point_latency(_hypercube(6, 32, baseline=False), wl)
        assert gen == pytest.approx(res.latency_mean, rel=0.08)

    def test_correction_improves_accuracy(self, cube6):
        """The paper's blocking correction must reduce the error against
        simulation on the hypercube — the quantitative version of the
        abstract's "can also be applied to other networks"."""
        wl = Workload.from_flit_load(0.25, 32)
        res = simulate(
            cube6, wl, SimConfig(warmup_cycles=1500, measure_cycles=8000, seed=5)
        )
        err_base = abs(
            point_latency(_hypercube(6, 32, baseline=True), wl) - res.latency_mean
        )
        err_gen = abs(
            point_latency(_hypercube(6, 32, baseline=False), wl) - res.latency_mean
        )
        assert err_gen < err_base


class TestNaiveBft:
    def test_naive_is_pessimistic(self):
        wl = Workload.from_flit_load(0.03, 32)
        naive = naive_bft_model(256).latency(wl)
        paper = ButterflyFatTreeModel(256).latency(wl)
        assert naive > paper

    def test_naive_variant_flags(self):
        m = naive_bft_model(64)
        assert not m.variant.multiserver_up
        assert not m.variant.blocking_correction

    def test_naive_zero_load_agrees(self):
        m = naive_bft_model(64)
        assert m.latency(Workload(32, 0.0)) == pytest.approx(m.zero_load_latency(32))
