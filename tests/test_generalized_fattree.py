"""Tests for the generalized (c, p) fat-tree family — the conclusion's extension."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ButterflyFatTree,
    ButterflyFatTreeModel,
    ConfigurationError,
    GeneralizedFatTree,
    GeneralizedFatTreeModel,
    ModelVariant,
    SimConfig,
    Workload,
    simulate,
)
from repro.core import saturation_injection_rate
from repro.core.generalized_model import (
    generalized_average_distance,
    generalized_channel_rates,
    generalized_up_probability,
)
from repro.topology.generalized_fattree import generalized_nca_level
from repro.topology.properties import average_distance_by_enumeration


class TestTopologyReducesToPaper:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_wiring_identical_to_bft(self, levels):
        g = GeneralizedFatTree(4, 2, levels)
        b = ButterflyFatTree(4**levels)
        assert g.link_src == b.link_src
        assert g.link_dst == b.link_dst
        assert g.link_class == b.link_class
        assert [sorted(x) for x in g.groups] == [sorted(x) for x in b.groups]

    def test_nca_matches(self):
        from repro import bft_nca_level

        for a, b in [(0, 63), (5, 7), (16, 47)]:
            assert generalized_nca_level(a, b, 4) == bft_nca_level(a, b)


class TestTopologyFamily:
    @pytest.mark.parametrize("c,p,n", [(2, 1, 3), (2, 2, 4), (4, 3, 3), (8, 2, 2), (3, 2, 3)])
    def test_construction_invariants(self, c, p, n):
        topo = GeneralizedFatTree(c, p, n)  # constructor verifies wiring
        assert topo.num_processors == c**n
        # switch populations: c^(n-l) p^(l-1)
        for level in range(1, n + 1):
            assert topo.switches_at_level(level) == c ** (n - level) * p ** (level - 1)
        # link count: 2 * sum_l (#switches at l+... per-direction links between
        # levels l and l+1 = N (p/c)^l ... = switches_at(l+1)*c... check via
        # class populations:
        from repro.topology import UP, LinkClass

        for l in range(n):
            links = [e for e, cl in enumerate(topo.link_class) if cl == LinkClass(UP, l)]
            if l == 0:
                assert len(links) == c**n
            else:
                assert len(links) == topo.switches_at_level(l) * p

    @pytest.mark.parametrize("c,p,n", [(2, 2, 3), (4, 3, 2), (8, 2, 2)])
    def test_routing_walk_all_pairs(self, c, p, n):
        topo = GeneralizedFatTree(c, p, n)
        n_procs = topo.num_processors
        for src in range(0, n_procs, max(1, n_procs // 16)):
            for dst in range(n_procs):
                if src == dst:
                    continue
                opts = topo.injection_options(src)
                node = opts.next_nodes[0]
                hops = 1
                while node != dst:
                    opts = topo.route_options(node, dst)
                    node = opts.next_nodes[0]
                    hops += 1
                    assert hops <= 2 * n
                assert hops == topo.path_length(src, dst)

    def test_group_sizes_are_p(self):
        topo = GeneralizedFatTree(4, 3, 2)
        sizes = {len(g) for g in topo.groups}
        assert sizes == {1, 3}

    @pytest.mark.parametrize("c,n", [(2, 3), (3, 2), (4, 2)])
    def test_average_distance_closed_form(self, c, n):
        topo = GeneralizedFatTree(c, 2, n)
        assert generalized_average_distance(c, n) == pytest.approx(
            average_distance_by_enumeration(topo)
        )

    def test_rejects_bad_parameters(self):
        for args in [(1, 2, 2), (4, 0, 2), (4, 2, 0)]:
            with pytest.raises(ConfigurationError):
                GeneralizedFatTree(*args)

    def test_describe(self):
        assert "c=4, p=3" in GeneralizedFatTree(4, 3, 2).describe()


class TestModelReducesToPaper:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("load", [0.01, 0.05])
    def test_latency_identical(self, levels, load):
        wl = Workload.from_flit_load(load, 32)
        gen = GeneralizedFatTreeModel(4, 2, levels).latency(wl)
        paper = ButterflyFatTreeModel(4**levels).latency(wl)
        if math.isinf(paper):
            assert math.isinf(gen)
        else:
            assert gen == pytest.approx(paper, rel=1e-12)

    @pytest.mark.parametrize(
        "variant",
        [ModelVariant.paper(), ModelVariant.naive(), ModelVariant.conditional_up()],
        ids=lambda v: v.label,
    )
    def test_variants_identical(self, variant):
        wl = Workload.from_flit_load(0.03, 16)
        gen = GeneralizedFatTreeModel(4, 2, 3, variant).latency(wl)
        paper = ButterflyFatTreeModel(64, variant).latency(wl)
        assert gen == pytest.approx(paper, rel=1e-12)

    def test_rates_identical(self):
        from repro.core.rates import bft_channel_rates

        assert np.allclose(
            generalized_channel_rates(4, 2, 4, 0.01), bft_channel_rates(4, 0.01)
        )


class TestModelFamily:
    def test_up_probability_counting(self):
        assert generalized_up_probability(2, 3, 1) == pytest.approx((8 - 2) / 7)
        assert generalized_up_probability(8, 2, 1) == pytest.approx((64 - 8) / 63)

    def test_zero_load_closed_form(self):
        for c, p, n in [(2, 2, 4), (4, 3, 3), (8, 2, 2)]:
            m = GeneralizedFatTreeModel(c, p, n)
            assert m.latency(Workload(32, 0.0)) == pytest.approx(
                m.zero_load_latency(32)
            )

    def test_more_parents_lower_latency(self):
        # Extra up-link redundancy must not hurt at equal load.
        wl = Workload.from_flit_load(0.1, 32)
        l2 = GeneralizedFatTreeModel(4, 2, 3).latency(wl)
        l3 = GeneralizedFatTreeModel(4, 3, 3).latency(wl)
        l4 = GeneralizedFatTreeModel(4, 4, 3).latency(wl)
        assert l3 < l2
        assert l4 < l3

    def test_more_parents_higher_saturation(self):
        sats = [
            saturation_injection_rate(GeneralizedFatTreeModel(4, p, 3), 32).flit_load
            for p in (1, 2, 3, 4)
        ]
        assert sats == sorted(sats)

    @pytest.mark.parametrize("c,p,n", [(4, 3, 3), (2, 2, 4), (4, 4, 2)])
    def test_model_tracks_simulation(self, c, p, n):
        """M/G/p waits (p > 2) must validate against the simulator — the
        quantitative form of the paper's concluding claim."""
        model = GeneralizedFatTreeModel(c, p, n)
        topo = GeneralizedFatTree(c, p, n)
        sat = saturation_injection_rate(model, 32).flit_load
        for frac in (0.3, 0.6):
            wl = Workload.from_flit_load(frac * sat, 32)
            res = simulate(
                topo, wl, SimConfig(warmup_cycles=1500, measure_cycles=7000, seed=8)
            )
            assert res.stable
            assert model.latency(wl) == pytest.approx(res.latency_mean, rel=0.06)

    def test_solution_saturation_flag(self):
        m = GeneralizedFatTreeModel(8, 2, 2)
        assert m.solve(Workload.from_flit_load(0.5, 32)).saturated
        assert not m.solve(Workload.from_flit_load(0.01, 32)).saturated

    def test_solution_record_is_shared_with_the_bft(self):
        """Every (c, p) returns BftSolution, so breakdown() and the
        utilizations work beyond the 4-2 tree."""
        from repro import BftSolution

        m = GeneralizedFatTreeModel(4, 3, 3)
        sol = m.solve(Workload.from_flit_load(0.05, 16))
        assert isinstance(sol, BftSolution)
        parts = sol.breakdown()
        assert parts["latency"] == m.latency(sol.workload)
        assert parts["injection_wait"] + parts["injection_service"] + parts[
            "pipeline"
        ] == pytest.approx(parts["latency"])
        assert np.all(sol.up_utilization() < 1.0)
        assert np.all(sol.down_utilization() < 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            GeneralizedFatTreeModel(1, 2, 2)
        with pytest.raises(ConfigurationError):
            GeneralizedFatTreeModel(4, 2, 2).solve(0.1)  # type: ignore[arg-type]

    @given(
        c=st.sampled_from([2, 3, 4]),
        p=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 3),
        load=st.floats(0.001, 0.05),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_latency_above_zero_load(self, c, p, n, load):
        m = GeneralizedFatTreeModel(c, p, n)
        lat = m.latency_at_flit_load(load, 16)
        assert lat >= m.zero_load_latency(16) - 1e-9


class TestGeneralizedStageGraph:
    """The generalized sweep must be an instance of the Section-2 recursion."""

    @pytest.mark.parametrize("c,p,n", [(4, 2, 3), (4, 3, 3), (8, 2, 2), (2, 2, 4)])
    @pytest.mark.parametrize("load", [0.02, 0.1])
    def test_matches_closed_form(self, c, p, n, load):
        from repro import generalized_fattree_stage_graph

        wl = Workload.from_flit_load(load, 16)
        closed = GeneralizedFatTreeModel(c, p, n).latency(wl)
        generic = generalized_fattree_stage_graph(c, p, n, wl).latency()
        if math.isinf(closed):
            assert math.isinf(generic)
        else:
            assert generic == pytest.approx(closed, rel=1e-12)

    def test_reduces_to_bft_graph(self):
        from repro import bft_stage_graph, generalized_fattree_stage_graph

        wl = Workload.from_flit_load(0.03, 32)
        a = generalized_fattree_stage_graph(4, 2, 3, wl).latency()
        b = bft_stage_graph(64, wl).latency()
        assert a == pytest.approx(b, rel=1e-12)

    def test_variant_passthrough(self):
        from repro import generalized_fattree_stage_graph

        wl = Workload.from_flit_load(0.05, 16)
        naive_closed = GeneralizedFatTreeModel(4, 3, 2, ModelVariant.naive()).latency(wl)
        naive_generic = generalized_fattree_stage_graph(
            4, 3, 2, wl, ModelVariant.naive()
        ).latency()
        assert naive_generic == pytest.approx(naive_closed, rel=1e-12)
