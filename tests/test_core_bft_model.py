"""Tests for the closed-form butterfly fat-tree model (Eqs. 16-26)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ButterflyFatTreeModel,
    ConfigurationError,
    ModelVariant,
    Workload,
    bft_average_distance,
)
from repro.core import saturation_injection_rate
from repro.core.rates import bft_channel_rates, up_probability
from repro.queueing import mg1_waiting_time_wormhole, mgm_waiting_time_wormhole


class TestZeroLoad:
    @pytest.mark.parametrize("n_procs", [4, 16, 64, 256, 1024])
    @pytest.mark.parametrize("flits", [16, 32, 64])
    def test_zero_load_closed_form(self, n_procs, flits):
        model = ButterflyFatTreeModel(n_procs)
        wl = Workload(flits, 0.0)
        expected = flits + bft_average_distance(model.levels) - 1
        assert model.latency(wl) == pytest.approx(expected)
        assert model.zero_load_latency(flits) == pytest.approx(expected)

    def test_zero_load_services_are_message_length(self):
        model = ButterflyFatTreeModel(64)
        sol = model.solve(Workload(32, 0.0))
        assert np.allclose(sol.down_service, 32.0)
        assert np.allclose(sol.up_service, 32.0)
        assert np.allclose(sol.down_wait, 0.0)
        assert np.allclose(sol.up_wait, 0.0)

    def test_figure3_zero_load_intercepts(self):
        # N=1024: D_bar = 9558/1023; L0 = F + D_bar - 1.
        model = ButterflyFatTreeModel(1024)
        d_bar = 9558 / 1023
        for flits in (16, 32, 64):
            assert model.zero_load_latency(flits) == pytest.approx(flits + d_bar - 1)


class TestEquationStructure:
    """Verify the sweep reproduces the paper's equations term by term."""

    def test_eq16_17_ejection_channel(self):
        model = ButterflyFatTreeModel(256)
        wl = Workload(16, 0.004)
        sol = model.solve(wl)
        assert sol.down_service[0] == 16.0  # Eq. 16: x_{1,0} = s/f
        expected_wait = mg1_waiting_time_wormhole(sol.rate[0], 16.0, 16)
        assert sol.down_wait[0] == pytest.approx(expected_wait)  # Eq. 17

    def test_eq18_down_recursion(self):
        model = ButterflyFatTreeModel(256)
        wl = Workload(16, 0.004)
        sol = model.solve(wl)
        for l in range(1, model.levels):
            p = 1 - 0.25 * sol.rate[l] / sol.rate[l - 1]
            expected = sol.down_service[l - 1] + p * sol.down_wait[l - 1]
            assert sol.down_service[l] == pytest.approx(expected)

    def test_eq19_down_waits_are_mg1(self):
        model = ButterflyFatTreeModel(256)
        sol = model.solve(Workload(16, 0.004))
        for l in range(model.levels):
            expected = mg1_waiting_time_wormhole(
                sol.rate[l], sol.down_service[l], 16
            )
            assert sol.down_wait[l] == pytest.approx(expected)

    def test_eq20_top_channel_two_thirds(self):
        # x_{n-1,n} = x_{n,n-1} + (2/3) W_{n,n-1}.
        model = ButterflyFatTreeModel(256)
        sol = model.solve(Workload(16, 0.004))
        top = model.levels - 1
        expected = sol.down_service[top] + (2.0 / 3.0) * sol.down_wait[top]
        assert sol.up_service[top] == pytest.approx(expected)

    def test_eq21_23_up_waits_are_two_server_with_doubled_rate(self):
        # The published correction: W uses the pair's total rate 2*lambda.
        model = ButterflyFatTreeModel(256)
        sol = model.solve(Workload(16, 0.004))
        for u in range(1, model.levels):
            expected = mgm_waiting_time_wormhole(
                2.0 * sol.rate[u], sol.up_service[u], 2, 16
            )
            assert sol.up_wait[u] == pytest.approx(expected)

    def test_eq22_up_recursion(self):
        model = ButterflyFatTreeModel(1024)
        sol = model.solve(Workload(16, 0.001))
        n = model.levels
        for u in range(n - 1):
            p_up = up_probability(n, u + 1)
            p_down = 1 - p_up
            up_term = p_up * (
                sol.up_service[u + 1]
                + (1 - sol.rate[u] / sol.rate[u + 1] * p_up) * sol.up_wait[u + 1]
            )
            down_term = p_down * (
                sol.down_service[u] + (1 - p_down / 3.0) * sol.down_wait[u]
            )
            assert sol.up_service[u] == pytest.approx(up_term + down_term)

    def test_eq24_injection_wait_is_single_server(self):
        model = ButterflyFatTreeModel(256)
        sol = model.solve(Workload(16, 0.004))
        expected = mg1_waiting_time_wormhole(sol.rate[0], sol.up_service[0], 16)
        assert sol.up_wait[0] == pytest.approx(expected)

    def test_eq25_latency_assembly(self):
        model = ButterflyFatTreeModel(256)
        sol = model.solve(Workload(16, 0.004))
        expected = (
            sol.injection_wait + sol.injection_service + model.average_distance - 1
        )
        assert sol.latency == pytest.approx(expected)

    def test_breakdown_sums_to_latency(self):
        model = ButterflyFatTreeModel(64)
        sol = model.solve(Workload(32, 0.002))
        b = sol.breakdown()
        assert b["injection_wait"] + b["injection_service"] + b["pipeline"] == (
            pytest.approx(b["latency"])
        )


class TestBehaviour:
    def test_latency_monotone_in_load(self):
        model = ButterflyFatTreeModel(256)
        lats = [
            model.latency_at_flit_load(x, 32)
            for x in np.linspace(0.001, 0.07, 12)
        ]
        finite = [x for x in lats if math.isfinite(x)]
        assert finite == sorted(finite)

    def test_latency_increases_with_message_length(self):
        model = ButterflyFatTreeModel(256)
        wl16 = Workload.from_flit_load(0.02, 16)
        wl64 = Workload.from_flit_load(0.02, 64)
        assert model.latency(wl64) > model.latency(wl16)

    def test_latency_increases_with_network_size(self):
        wl = Workload.from_flit_load(0.02, 32)
        lats = [ButterflyFatTreeModel(n).latency(wl) for n in (16, 64, 256, 1024)]
        assert lats == sorted(lats)

    def test_flit_load_scale_invariance(self):
        """Structural property: at fixed flit load, waits and services scale
        linearly with message length, so (L - D_bar + 1) / F is invariant."""
        for n_procs in (16, 256):
            model = ButterflyFatTreeModel(n_procs)
            for load in (0.01, 0.03):
                vals = []
                for flits in (8, 16, 32, 64):
                    lat = model.latency_at_flit_load(load, flits)
                    vals.append((lat - model.average_distance + 1) / flits)
                assert max(vals) - min(vals) < 1e-9

    def test_saturated_point_is_inf(self):
        model = ButterflyFatTreeModel(1024)
        assert math.isinf(model.latency_at_flit_load(0.2, 32))

    def test_solution_flags_saturation(self):
        model = ButterflyFatTreeModel(1024)
        sol = model.solve(Workload.from_flit_load(0.2, 32))
        assert sol.saturated
        sol_ok = model.solve(Workload.from_flit_load(0.01, 32))
        assert not sol_ok.saturated

    def test_utilizations_below_one_below_saturation(self):
        model = ButterflyFatTreeModel(1024)
        sat = saturation_injection_rate(model, 32)
        sol = model.solve(Workload(32, 0.9 * sat.injection_rate))
        assert np.all(sol.up_utilization() < 1.0)
        assert np.all(sol.down_utilization() < 1.0)

    def test_rejects_non_workload(self):
        model = ButterflyFatTreeModel(16)
        with pytest.raises(ConfigurationError):
            model.solve(0.01)  # type: ignore[arg-type]

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            ButterflyFatTreeModel(100)

    def test_describe_mentions_variant(self):
        m = ButterflyFatTreeModel(64, ModelVariant.naive())
        assert "naive" in m.describe()

    def test_is_the_4_2_generalized_model(self):
        """Eqs. 16-24 are written once: the BFT only sizes the (4, 2) tree."""
        from repro import GeneralizedFatTreeModel

        m = ButterflyFatTreeModel(256)
        assert isinstance(m, GeneralizedFatTreeModel)
        assert (m.children, m.parents, m.levels) == (4, 2, 4)
        own = {name for name in vars(ButterflyFatTreeModel) if not name.startswith("__")}
        assert own == {"describe"}

    @given(
        exponent=st.integers(1, 5),
        load=st.floats(0.001, 0.035),
        flits=st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_latency_at_least_zero_load(self, exponent, load, flits):
        model = ButterflyFatTreeModel(4**exponent)
        lat = model.latency_at_flit_load(load, flits)
        assert lat >= model.zero_load_latency(flits) - 1e-9

    @given(exponent=st.integers(1, 4), flits=st.sampled_from([16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_property_is_stable_consistent_with_latency(self, exponent, flits):
        model = ButterflyFatTreeModel(4**exponent)
        sat = saturation_injection_rate(model, flits)
        below = Workload(flits, 0.9 * sat.injection_rate)
        above = Workload(flits, 1.2 * sat.injection_rate)
        assert model.is_stable(below)
        assert not model.is_stable(above)


class TestVariants:
    def test_paper_is_default(self):
        assert ButterflyFatTreeModel(16).variant == ModelVariant.paper()

    def test_no_multiserver_predicts_higher_latency(self):
        wl = Workload.from_flit_load(0.03, 32)
        paper = ButterflyFatTreeModel(256).latency(wl)
        nomulti = ButterflyFatTreeModel(256, ModelVariant.no_multiserver()).latency(wl)
        assert nomulti > paper

    def test_no_blocking_predicts_higher_latency(self):
        wl = Workload.from_flit_load(0.05, 32)
        paper = ButterflyFatTreeModel(256).latency(wl)
        noblock = ButterflyFatTreeModel(
            256, ModelVariant.no_blocking_correction()
        ).latency(wl)
        assert noblock > paper

    def test_scv_ordering(self):
        # At equal load: deterministic <= draper-ghosh <= exponential waits.
        wl = Workload.from_flit_load(0.05, 32)
        det = ButterflyFatTreeModel(256, ModelVariant.deterministic_scv()).latency(wl)
        dg = ButterflyFatTreeModel(256).latency(wl)
        exp = ButterflyFatTreeModel(256, ModelVariant.exponential_scv()).latency(wl)
        assert det <= dg <= exp

    def test_conditional_up_close_to_paper(self):
        wl = Workload.from_flit_load(0.02, 32)
        paper = ButterflyFatTreeModel(1024).latency(wl)
        cond = ButterflyFatTreeModel(1024, ModelVariant.conditional_up()).latency(wl)
        assert abs(cond - paper) / paper < 0.05

    def test_all_variants_zero_load_agree(self):
        wl = Workload(32, 0.0)
        for variant in (
            ModelVariant.paper(),
            ModelVariant.no_multiserver(),
            ModelVariant.no_blocking_correction(),
            ModelVariant.naive(),
            ModelVariant.deterministic_scv(),
            ModelVariant.exponential_scv(),
            ModelVariant.conditional_up(),
        ):
            model = ButterflyFatTreeModel(64, variant)
            assert model.latency(wl) == pytest.approx(model.zero_load_latency(32))

    def test_with_label(self):
        v = ModelVariant.paper().with_label("x")
        assert v.label == "x"
        assert v.multiserver_up
