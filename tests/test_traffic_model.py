"""Tests for the pattern-aware analytical path (flows + stage graphs).

Pattern models are resolved like every caller resolves them, through
``design_family(...).evaluator``; graphs the resolver never builds (the
uniform per-channel graph, other reference rates) come straight from
:func:`~repro.traffic.analytic.stage_graph_from_flows`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    ButterflyFatTree,
    ButterflyFatTreeModel,
    ChannelGraphModel,
    ConfigurationError,
    EntryPoint,
    HotspotSpec,
    Hypercube,
    ModelVariant,
    QuadLocalSpec,
    Stage,
    TornadoSpec,
    TransposeSpec,
    UniformSpec,
    Workload,
)
from repro.core import (
    latency_sweep,
    load_grid_to_saturation,
    saturation_injection_rate,
)
from repro.core.rates import bft_channel_rates, bft_channel_rates_for_matrix
from repro.design import design_family
from repro.topology.base import DOWN, UP
from repro.topology.properties import bft_average_distance
from repro.traffic import bft_channel_flows, single_path_flows, stage_graph_from_flows

N = 64
FLITS = 16
#: The rate the family resolver builds stage graphs at.
REFERENCE = Workload(FLITS, 1.0 / (100.0 * FLITS))


def bft_pattern_model(spec, **kw):
    """The resolved pattern model of the N-PE butterfly fat-tree."""
    return design_family("bft").evaluator({"processors": N}, spec, FLITS, **kw)


def bft_uniform_graph(variant=None):
    """The per-channel graph of uniform traffic (the resolver answers
    uniform traffic with the closed form instead)."""
    flows = bft_channel_flows(ButterflyFatTree(N), UniformSpec())
    return stage_graph_from_flows(flows, REFERENCE, variant)


def _class_links(topo, direction, level):
    return [
        e
        for e, c in enumerate(topo.link_class)
        if c.direction == direction and c.level == level
    ]


class TestBftFlows:
    def test_uniform_reproduces_eq14_per_link(self):
        topo = ButterflyFatTree(N)
        flows = bft_channel_flows(topo, UniformSpec())
        ref = bft_channel_rates(topo.levels, 1.0)
        for l in range(topo.levels):
            ups = flows.link_rate[_class_links(topo, UP, l)]
            assert np.allclose(ups, ref[l])
            downs = flows.link_rate[_class_links(topo, DOWN, l)]
            assert np.allclose(downs, ref[l])

    def test_flow_conservation(self):
        topo = ButterflyFatTree(N)
        for spec in (UniformSpec(), HotspotSpec(fraction=0.1), TransposeSpec()):
            flows = bft_channel_flows(topo, spec)
            inject = flows.link_rate[_class_links(topo, UP, 0)].sum()
            eject = flows.link_rate[_class_links(topo, DOWN, 0)].sum()
            assert inject == pytest.approx(flows.total_rate)
            assert eject == pytest.approx(inject)

    def test_uniform_average_distance(self):
        topo = ButterflyFatTree(N)
        flows = bft_channel_flows(topo, UniformSpec())
        assert flows.average_distance() == pytest.approx(
            bft_average_distance(topo.levels)
        )

    def test_hotspot_concentrates_on_hot_ejection(self):
        topo = ButterflyFatTree(N)
        spec = HotspotSpec(fraction=0.05, target=0)
        flows = bft_channel_flows(topo, spec)
        eject = _class_links(topo, DOWN, 0)
        hot = [e for e in eject if topo.link_dst[e] == 0][0]
        cold = [e for e in eject if topo.link_dst[e] != 0]
        # 63 sources * 0.05 each on the hot channel
        assert flows.link_rate[hot] == pytest.approx(63 * 0.05)
        assert flows.link_rate[hot] > 2.5 * max(flows.link_rate[e] for e in cold)

    def test_quad_local_never_climbs(self):
        topo = ButterflyFatTree(N)
        flows = bft_channel_flows(topo, QuadLocalSpec())
        for l in range(1, topo.levels):
            assert np.all(flows.link_rate[_class_links(topo, UP, l)] == 0.0)
        assert flows.average_distance() == pytest.approx(2.0)

    def test_matrix_class_average_matches_flows(self):
        topo = ButterflyFatTree(N)
        spec = TornadoSpec()
        flows = bft_channel_flows(topo, spec)
        avg = bft_channel_rates_for_matrix(
            topo.levels, 1.0, spec.destination_matrix(N)
        )
        for l in range(topo.levels):
            ups = flows.link_rate[_class_links(topo, UP, l)]
            assert np.mean(ups) == pytest.approx(avg[l])

    def test_matrix_class_average_uniform_is_eq14(self):
        m = UniformSpec().destination_matrix(N)
        assert np.allclose(
            bft_channel_rates_for_matrix(3, 0.01, m), bft_channel_rates(3, 0.01)
        )


class TestHypercubeFlows:
    def test_uniform_matches_class_rates(self):
        topo = Hypercube(4)
        flows = single_path_flows(topo, UniformSpec())
        lam_dim = (topo.num_processors // 2) / (topo.num_processors - 1)
        dims = flows.link_rate[: topo.num_processors * topo.dimension]
        assert np.allclose(dims, lam_dim)

    def test_traffic_model_solves(self):
        wl = Workload(FLITS, 0.002)
        flows = single_path_flows(Hypercube(4), TornadoSpec())
        model = stage_graph_from_flows(flows, wl)
        lat = model.latency()
        assert np.isfinite(lat)
        assert lat > FLITS


class TestUniformEquivalence:
    """The per-channel graph must reproduce the closed-form model exactly
    (with the exact conditional climb probabilities, which flow
    conservation forces)."""

    def test_latency_matches_conditional_up_model(self):
        model = ButterflyFatTreeModel(N, ModelVariant.conditional_up())
        graph = bft_uniform_graph(model.variant)
        loads = np.array([0.0005, 0.002, 0.005, 0.008])
        a = graph.latency_batch(loads, FLITS)
        b = model.latency_batch(loads, FLITS)
        assert np.allclose(a, b, rtol=1e-10)

    def test_saturation_matches(self):
        model = ButterflyFatTreeModel(N, ModelVariant.conditional_up())
        graph = bft_uniform_graph(model.variant)
        sat_graph = saturation_injection_rate(graph, FLITS)
        sat_model = saturation_injection_rate(model, FLITS)
        assert sat_graph.injection_rate == pytest.approx(
            sat_model.injection_rate, rel=1e-5
        )

    def test_paper_variant_is_close(self):
        model = ButterflyFatTreeModel(N)
        graph = bft_uniform_graph()
        loads = np.array([0.002, 0.006])
        a = graph.latency_batch(loads, FLITS)
        b = model.latency_batch(loads, FLITS)
        assert np.allclose(a, b, rtol=0.02)


class TestPatternModels:
    def test_hotspot_lowers_saturation(self):
        model = ButterflyFatTreeModel(N)
        sat_uniform = saturation_injection_rate(model, FLITS)
        sat_hot = saturation_injection_rate(
            bft_pattern_model(HotspotSpec(fraction=0.2)), FLITS
        )
        assert sat_hot.injection_rate < sat_uniform.injection_rate

    def test_quad_local_latency_below_uniform(self):
        model = ButterflyFatTreeModel(N)
        graph = bft_pattern_model(QuadLocalSpec())
        wl = Workload(FLITS, 0.004)
        assert float(graph.latency_batch([wl.injection_rate], FLITS)[0]) < model.latency(wl)

    def test_silent_sources_have_no_entries(self):
        graph = bft_pattern_model(TransposeSpec())
        names = {e.name for e in graph.entries}
        assert f"inj0" not in names  # node 0 is a transpose fixed point
        assert len(names) == 56  # 64 - 8 fixed points

    def test_spec_sweep_is_batched(self, monkeypatch):
        """A non-uniform sweep must be one batch solve, not per-point work."""
        calls = {"n": 0}
        original = ChannelGraphModel.solve_batch

        def counting(self, rate_scales):
            calls["n"] += 1
            return original(self, rate_scales)

        monkeypatch.setattr(ChannelGraphModel, "solve_batch", counting)
        model = bft_pattern_model(HotspotSpec(fraction=0.05))
        grid = np.linspace(0.01, 0.08, 24)
        curve = latency_sweep(model, FLITS, grid)
        assert curve.latencies.shape == (24,)
        assert calls["n"] == 1

    def test_load_grid_with_spec_uses_pattern_saturation(self):
        model = bft_pattern_model(HotspotSpec(fraction=0.3))
        grid = load_grid_to_saturation(model, FLITS, n_points=8)
        sat = saturation_injection_rate(model, FLITS)
        assert grid[-1] == pytest.approx(0.98 * sat.flit_load)
        uniform = saturation_injection_rate(ButterflyFatTreeModel(N), FLITS)
        assert sat.flit_load < uniform.flit_load

    def test_traffic_model_validates_flits(self):
        graph = bft_uniform_graph()
        with pytest.raises(ConfigurationError):
            graph.latency_batch(np.array([0.001]), FLITS + 1)
        with pytest.raises(ConfigurationError):
            graph.stability_batch(np.array([0.001]), FLITS + 1)
        for flits in (0, 2.5):
            with pytest.raises(ConfigurationError):
                design_family("bft").evaluator(
                    {"processors": N}, HotspotSpec(fraction=0.1), flits
                )

    def test_spec_requires_traffic_aware_model(self):
        fam = design_family("generalized-fattree")
        params = {"children": 4, "parents": 2, "levels": 3}
        with pytest.raises(ConfigurationError, match="no pattern-aware model"):
            fam.evaluator(params, HotspotSpec(fraction=0.1), FLITS)
        # Uniform traffic keeps the family's closed form.
        assert fam.evaluator(params, UniformSpec(), FLITS).latency_batch(
            np.array([0.001]), FLITS
        )[0] > FLITS

    def test_baseline_pattern_model_shares_cached_flows(self, monkeypatch):
        """The prior-art pattern model traces flows once, like the paper's."""
        from repro.design import families
        from repro.traffic import flows as traffic_flows

        for value in vars(families).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        traced = []
        original = traffic_flows.bft_channel_flows

        def spy(topology, spec):
            traced.append(spec)
            return original(topology, spec)

        monkeypatch.setattr(traffic_flows, "bft_channel_flows", spy)
        spec = HotspotSpec(fraction=0.1)
        first = bft_pattern_model(spec, baseline=True)
        second = bft_pattern_model(spec, baseline=True)
        paper = bft_pattern_model(spec)
        assert traced == [spec]
        assert first.variant == second.variant == ModelVariant.naive()
        assert paper.variant == ModelVariant.paper()
        loads = np.array([0.001, 0.004])
        assert np.array_equal(first.latency_batch(loads), second.latency_batch(loads))


class TestMultiEntryValidation:
    def test_entry_and_entries_are_exclusive(self):
        from repro import Transition

        stages = [
            Stage("ej", rate_per_server=0.01),
            Stage("inj", rate_per_server=0.01, transitions=(Transition("ej", 1.0),)),
        ]
        with pytest.raises(ConfigurationError):
            ChannelGraphModel(
                stages,
                message_flits=8,
                entry="inj",
                average_distance=2.0,
                entries=(EntryPoint("inj", 1.0, 2.0),),
            )
        with pytest.raises(ConfigurationError):
            ChannelGraphModel(stages, message_flits=8)

    def test_entry_weights_normalized(self):
        from repro import Transition

        stages = [
            Stage("ej", rate_per_server=0.01),
            Stage("a", rate_per_server=0.01, transitions=(Transition("ej", 1.0),)),
            Stage("b", rate_per_server=0.01, transitions=(Transition("ej", 1.0),)),
        ]
        g = ChannelGraphModel(
            stages,
            message_flits=8,
            entries=(EntryPoint("a", 3.0, 2.0), EntryPoint("b", 1.0, 2.0)),
        )
        assert sum(e.weight for e in g.entries) == pytest.approx(1.0)
        assert g.entry == "a"
        assert np.isfinite(g.latency())

    def test_bad_entry_point_rejected(self):
        with pytest.raises(ConfigurationError):
            EntryPoint("x", 0.0, 2.0)
        with pytest.raises(ConfigurationError):
            EntryPoint("x", 1.0, -1.0)


class TestModelVsSimulationAgreement:
    """The acceptance criterion: analytical and simulated latency within
    10% at half the pattern's saturation load on a 64-PE fat-tree."""

    def test_nonuniform_agreement_at_half_saturation(self):
        from repro.experiments.common import ExperimentMode
        from repro.experiments.validate import default_cells, run_validation

        quick = ExperimentMode(full=False)
        patterns = ("hotspot", "transpose", "bit-reversal")
        cells = [c for c in default_cells(quick) if c.scenario.pattern in patterns]
        result = run_validation(cells=cells, experiment_mode=quick)
        assert [r.scenario.pattern for r in result.rows] == list(patterns)
        for row in result.rows:
            assert row.scenario.num_processors == 64
            assert row.load_fraction == 0.5
            assert math.isfinite(row.reference_latency), row.scenario.pattern
            assert abs(row.model_err) <= 0.10, (row.scenario.pattern, row.model_err)
        assert "Model vs simulation" in result.render()
