"""Tests for the event-driven worm-level simulator."""

from __future__ import annotations

import math

import pytest

from repro import (
    ButterflyFatTree,
    Hypercube,
    SimConfig,
    TraceTraffic,
    Workload,
    simulate,
)
from repro.core.rates import bft_channel_rates
from repro.errors import SimulationError
from repro.simulation.wormhole_sim import EventDrivenWormholeSimulator


def _trace_cfg(measure=200.0, seed=0):
    return SimConfig(warmup_cycles=0, measure_cycles=measure, seed=seed, drain_factor=100)


class TestSingleMessage:
    @pytest.mark.parametrize("src,dst", [(0, 1), (0, 5), (0, 63), (17, 42)])
    def test_latency_is_f_plus_d_minus_one(self, bft64, src, dst):
        flits = 16
        res = simulate(
            bft64,
            Workload(flits, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, src, dst)]),
        )
        assert res.tagged_delivered == 1
        assert res.latency_mean == flits + bft64.path_length(src, dst) - 1

    def test_hypercube_single_message(self, cube6):
        res = simulate(
            cube6,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 0, 63)]),
        )
        # path = 6 network hops + inject + eject = 8
        assert res.latency_mean == 16 + 8 - 1

    def test_nonzero_start_time(self, bft64):
        res = simulate(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(7.0, 0, 63)]),
        )
        assert res.latency_mean == 16 + 6 - 1  # latency independent of start


class TestPipelining:
    def test_same_source_messages_serialize(self, bft64):
        """Two messages from one PE: the second waits for the injection
        channel, which is held for exactly x = F cycles at zero contention
        beyond... the release of the injection link comes F cycles after
        the pipeline start."""
        flits = 16
        res = simulate(
            bft64,
            Workload(flits, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 0, 63), (0.0, 0, 62)]),
        )
        assert res.tagged_delivered == 2
        # First: F + D - 1 = 21. Second: injection link frees at t=16
        # (A + 0 + F with A=0), so it completes at 16 + 21 = 37.
        assert res.latency_max == pytest.approx(37.0)
        assert res.latency_min == pytest.approx(21.0)

    def test_disjoint_paths_do_not_interact(self, bft64):
        res = simulate(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 0, 1), (0.0, 4, 5)]),
        )
        assert res.latency_min == res.latency_max == 16 + 2 - 1

    def test_contention_for_shared_ejection_link(self, bft64):
        """Two simultaneous messages to the same destination: FCFS at the
        ejection channel; the loser waits for the winner's full service."""
        res = simulate(
            bft64,
            Workload(16, 0.0),
            _trace_cfg(),
            traffic=TraceTraffic([(0.0, 1, 0), (0.0, 2, 0)]),
        )
        lats = sorted([res.latency_min, res.latency_max])
        assert lats[0] == pytest.approx(17.0)  # F + 2 - 1
        # Loser: ejection link freed at A+1+F = 17... it waited blocked at
        # the level-1 switch; completes at 17 (grant) + 16 = 33 -> latency 33.
        assert lats[1] == pytest.approx(33.0)


class TestConservation:
    def test_all_generated_delivered_below_saturation(self, bft64):
        wl = Workload.from_flit_load(0.05, 16)
        cfg = SimConfig(warmup_cycles=500, measure_cycles=4000, seed=3)
        res = simulate(bft64, wl, cfg)
        assert res.censored_tagged == 0
        assert res.tagged_delivered == res.tagged_generated
        assert res.stable

    def test_throughput_tracks_offered_load(self, bft64):
        wl = Workload.from_flit_load(0.06, 16)
        cfg = SimConfig(warmup_cycles=1000, measure_cycles=8000, seed=4)
        res = simulate(bft64, wl, cfg)
        assert res.delivered_flit_rate == pytest.approx(0.06, rel=0.1)

    def test_class_rates_match_eq14(self, bft64):
        lam0 = 0.004
        cfg = SimConfig(warmup_cycles=1000, measure_cycles=15000, seed=5)
        res = simulate(bft64, Workload(16, lam0), cfg)
        expected = bft_channel_rates(3, lam0)
        for l in range(3):
            up = res.class_stats[f"<{l},{l+1}>"].rate_per_link(cfg.measure_cycles)
            down = res.class_stats[f"<{l+1},{l}>"].rate_per_link(cfg.measure_cycles)
            assert up == pytest.approx(expected[l], rel=0.08)
            assert down == pytest.approx(expected[l], rel=0.08)

    def test_no_short_worms_when_long_enough(self, bft64):
        wl = Workload.from_flit_load(0.03, 16)  # F=16 > max path 6
        cfg = SimConfig(warmup_cycles=500, measure_cycles=3000, seed=6)
        res = simulate(bft64, wl, cfg)
        assert res.short_worm_fraction == 0.0

    def test_short_worm_fraction_reported(self, bft256):
        wl = Workload.from_flit_load(0.01, 4)  # F=4 < typical path length
        cfg = SimConfig(warmup_cycles=500, measure_cycles=3000, seed=7)
        res = simulate(bft256, wl, cfg)
        assert res.short_worm_fraction > 0.5


class TestSaturationBehaviour:
    def test_overload_is_flagged_unstable(self, bft64):
        wl = Workload.from_flit_load(0.5, 16)  # ~3x saturation
        cfg = SimConfig(warmup_cycles=500, measure_cycles=3000, seed=8, drain_factor=1.5)
        res = simulate(bft64, wl, cfg)
        assert not res.stable
        assert res.censored_tagged > 0
        assert res.delivered_flit_rate < 0.5

    def test_zero_load_run_is_stable(self, bft16):
        cfg = SimConfig(warmup_cycles=100, measure_cycles=500, seed=9)
        res = simulate(bft16, Workload(16, 0.0), cfg)
        assert res.stable
        assert res.generated_total == 0


class TestDeterminism:
    def test_same_seed_same_result(self, bft64):
        wl = Workload.from_flit_load(0.08, 16)
        cfg = SimConfig(warmup_cycles=500, measure_cycles=3000, seed=77)
        r1 = simulate(bft64, wl, cfg)
        r2 = simulate(bft64, wl, cfg)
        assert r1.latency_mean == r2.latency_mean
        assert r1.tagged_delivered == r2.tagged_delivered

    def test_second_run_raises(self, bft16):
        # One instance accumulates one run: a second call would merge its
        # statistics into the first run's and report the sum.
        wl = Workload.from_flit_load(0.05, 16)
        cfg = SimConfig(warmup_cycles=200, measure_cycles=800, seed=3)
        sim = EventDrivenWormholeSimulator(bft16, wl, cfg)
        first = sim.run()
        with pytest.raises(SimulationError, match="runs once"):
            sim.run()
        assert first == EventDrivenWormholeSimulator(bft16, wl, cfg).run()

    def test_different_seeds_differ(self, bft64):
        wl = Workload.from_flit_load(0.08, 16)
        r1 = simulate(bft64, wl, SimConfig(warmup_cycles=500, measure_cycles=3000, seed=1))
        r2 = simulate(bft64, wl, SimConfig(warmup_cycles=500, measure_cycles=3000, seed=2))
        assert r1.latency_mean != r2.latency_mean


class TestResultFields:
    def test_percentiles_ordered(self, bft64):
        wl = Workload.from_flit_load(0.08, 16)
        cfg = SimConfig(warmup_cycles=500, measure_cycles=4000, seed=10)
        res = simulate(bft64, wl, cfg)
        assert res.latency_min <= res.latency_p50 <= res.latency_p95 <= res.latency_max

    def test_keep_samples_false_drops_percentiles(self, bft64):
        wl = Workload.from_flit_load(0.08, 16)
        cfg = SimConfig(warmup_cycles=500, measure_cycles=2000, seed=11)
        res = EventDrivenWormholeSimulator(bft64, wl, cfg, keep_samples=False).run()
        assert math.isnan(res.latency_p50)
        assert not math.isnan(res.latency_mean)

    def test_summary_string(self, bft16):
        cfg = SimConfig(warmup_cycles=100, measure_cycles=1000, seed=12)
        res = simulate(bft16, Workload.from_flit_load(0.05, 16), cfg)
        s = res.summary()
        assert "latency" in s and "throughput" in s

    def test_offered_rate_property(self, bft16):
        cfg = SimConfig(warmup_cycles=100, measure_cycles=1000, seed=13)
        res = simulate(bft16, Workload.from_flit_load(0.05, 16), cfg)
        assert res.offered_flit_rate == pytest.approx(0.05)
