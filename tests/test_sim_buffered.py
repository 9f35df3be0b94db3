"""Tests for the input-buffered virtual-channel simulator."""

from __future__ import annotations

import math

import pytest

from repro import (
    ButterflyFatTree,
    ConfigurationError,
    KaryNCube,
    SimConfig,
    TraceTraffic,
    Workload,
    simulate,
    simulate_buffered,
)
from repro.errors import SimulationError
from repro.simulation.buffered_sim import BufferedWormholeSimulator, dateline_policy


def _trace_cfg(measure=200.0, seed=0):
    return SimConfig(warmup_cycles=0, measure_cycles=measure, seed=seed, drain_factor=100)


class TestValidation:
    def test_rejects_bad_parameters(self, bft16):
        wl = Workload(16, 0.0)
        cfg = _trace_cfg()
        with pytest.raises(ConfigurationError):
            BufferedWormholeSimulator(bft16, wl, cfg, virtual_channels=0)
        with pytest.raises(ConfigurationError):
            BufferedWormholeSimulator(bft16, wl, cfg, buffer_flits=0)
        with pytest.raises(ConfigurationError):
            BufferedWormholeSimulator(bft16, wl, cfg, vc_policy="bogus")
        with pytest.raises(ConfigurationError):
            BufferedWormholeSimulator(
                bft16, wl, cfg, vc_policy="dateline", virtual_channels=1
            )

    def test_dateline_requires_torus(self, bft16):
        with pytest.raises(ConfigurationError):
            dateline_policy(bft16)


class TestZeroContention:
    @pytest.mark.parametrize("src,dst", [(0, 1), (0, 63), (17, 42)])
    def test_single_message_matches_other_sims(self, bft64, src, dst):
        res = simulate_buffered(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, src, dst)]),
        )
        assert res.latency_mean == 16 + bft64.path_length(src, dst) - 1

    def test_buffer_depth_one_halves_streaming(self, bft64):
        """B=1 + one-cycle credit loop => one flit every two cycles:
        latency = D + 2*(F-1) for a lone message."""
        res = simulate_buffered(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 0, 63)]),
            buffer_flits=1,
        )
        assert res.latency_mean == 6 + 2 * (16 - 1)

    def test_deep_buffers_do_not_speed_up_lone_message(self, bft64):
        res = simulate_buffered(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 0, 63)]),
            buffer_flits=32,
        )
        assert res.latency_mean == 16 + 6 - 1

    def test_contention_pair_matches_other_sims(self, bft64):
        res = simulate_buffered(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 1, 0), (0.0, 2, 0)]),
        )
        assert sorted([res.latency_min, res.latency_max]) == [17.0, 33.0]

    def test_virtual_channels_share_physical_bandwidth(self, bft64):
        """Two worms multiplexing one ejection link with 2 VCs cannot beat
        the single-VC FCFS outcome in aggregate: the later of the two
        completions is bandwidth-bound at 2F + D - 1 regardless."""
        res = simulate_buffered(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 1, 0), (0.0, 2, 0)]),
            virtual_channels=2,
        )
        assert res.latency_max >= 2 * 16 - 1  # the link carries 32 flits


class TestLoadedAgreement:
    @pytest.mark.parametrize("load", [0.04, 0.08])
    def test_b2_matches_blocked_in_place(self, bft64, load):
        wl = Workload.from_flit_load(load, 16)
        cfg = SimConfig(warmup_cycles=1500, measure_cycles=6000, seed=5)
        buffered = simulate_buffered(bft64, wl, cfg, keep_samples=False)
        event = simulate(bft64, wl, cfg, keep_samples=False)
        assert buffered.latency_mean == pytest.approx(event.latency_mean, rel=0.05)

    def test_b1_visibly_slower(self, bft64):
        wl = Workload.from_flit_load(0.05, 16)
        cfg = SimConfig(warmup_cycles=1000, measure_cycles=5000, seed=6)
        b1 = simulate_buffered(bft64, wl, cfg, buffer_flits=1, keep_samples=False)
        b2 = simulate_buffered(bft64, wl, cfg, buffer_flits=2, keep_samples=False)
        assert b1.latency_mean > 1.5 * b2.latency_mean

    def test_conservation(self, bft64):
        wl = Workload.from_flit_load(0.06, 16)
        cfg = SimConfig(warmup_cycles=1000, measure_cycles=5000, seed=7)
        res = simulate_buffered(bft64, wl, cfg, keep_samples=False)
        assert res.censored_tagged == 0
        assert res.delivered_flit_rate == pytest.approx(0.06, rel=0.1)

    def test_determinism(self, bft16):
        wl = Workload.from_flit_load(0.08, 16)
        cfg = SimConfig(warmup_cycles=500, measure_cycles=3000, seed=8)
        r1 = simulate_buffered(bft16, wl, cfg, keep_samples=False)
        r2 = simulate_buffered(bft16, wl, cfg, keep_samples=False)
        assert r1.latency_mean == r2.latency_mean

    def test_second_run_raises(self, bft16):
        # One instance accumulates one run: a second call would merge its
        # statistics into the first run's and report the sum.
        wl = Workload.from_flit_load(0.05, 16)
        cfg = SimConfig(warmup_cycles=200, measure_cycles=800, seed=3)
        sim = BufferedWormholeSimulator(bft16, wl, cfg)
        first = sim.run()
        with pytest.raises(SimulationError, match="runs once"):
            sim.run()
        assert first == BufferedWormholeSimulator(bft16, wl, cfg).run()


class TestDateline:
    def test_torus_deadlock_free_with_vcs(self, torus8x2):
        wl = Workload.from_flit_load(0.06, 32)
        cfg = SimConfig(warmup_cycles=1500, measure_cycles=6000, seed=9, drain_factor=6.0)
        vc = simulate_buffered(
            torus8x2,
            wl,
            cfg,
            virtual_channels=2,
            vc_policy="dateline",
            keep_samples=False,
        )
        assert vc.censored_tagged == 0
        novc = simulate(torus8x2, wl, cfg, keep_samples=False)
        assert novc.censored_tagged > 0  # physical wormhole ring deadlock

    def test_policy_classification(self, torus8x2):
        policy = dateline_policy(torus8x2)
        # link of node with coord k-1 in dim 0 is the wrap link
        wrap_node = 7  # coords (7, 0)
        dim, is_wrap = policy.classify(wrap_node * 2 + 0)
        assert dim == 0 and is_wrap
        dim, is_wrap = policy.classify(0 * 2 + 0)
        assert dim == 0 and not is_wrap
        # injection links are unconstrained
        dim, _ = policy.classify(torus8x2.num_processors * 2 + 5)
        assert dim == -1

    def test_fat_tree_any_policy_with_vcs_still_correct(self, bft16):
        wl = Workload.from_flit_load(0.1, 16)
        cfg = SimConfig(warmup_cycles=500, measure_cycles=3000, seed=10)
        res = simulate_buffered(
            bft16, wl, cfg, virtual_channels=2, keep_samples=False
        )
        assert res.censored_tagged == 0
        assert res.latency_mean > 0
