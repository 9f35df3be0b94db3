"""Tests for traffic generation (Poisson sources, patterns, traces)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigurationError, PoissonTraffic, TraceTraffic, Workload
from repro.simulation.traffic import Arrival, poisson_trace
from repro.traffic import PermutationSpec, make_spec


def _collect(traffic, horizon):
    return list(traffic.arrivals(horizon))


class TestPoissonTraffic:
    def test_rate_matches_configuration(self):
        wl = Workload(16, 0.01)
        tr = PoissonTraffic(64, wl, seed=1)
        arrivals = _collect(tr, 20_000)
        measured = len(arrivals) / (20_000 * 64)
        assert measured == pytest.approx(0.01, rel=0.05)

    def test_time_ordered(self):
        tr = PoissonTraffic(16, Workload(16, 0.02), seed=2)
        times = [a.time for a in _collect(tr, 5000)]
        assert times == sorted(times)

    def test_no_self_messages(self):
        tr = PoissonTraffic(16, Workload(16, 0.05), seed=3)
        assert all(a.src != a.dst for a in _collect(tr, 5000))

    def test_sources_cover_all_pes(self):
        tr = PoissonTraffic(16, Workload(16, 0.05), seed=4)
        srcs = {a.src for a in _collect(tr, 10_000)}
        assert srcs == set(range(16))

    def test_destinations_approximately_uniform(self):
        tr = PoissonTraffic(8, Workload(16, 0.2), seed=5)
        arrivals = _collect(tr, 20_000)
        counts = np.bincount([a.dst for a in arrivals], minlength=8)
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 1 / 8) < 0.02)

    def test_exponential_interarrivals(self):
        # Per-PE inter-arrival times must have CV ~ 1 (exponential).
        tr = PoissonTraffic(4, Workload(16, 0.05), seed=6)
        arrivals = _collect(tr, 100_000)
        per_pe = [a.time for a in arrivals if a.src == 0]
        gaps = np.diff(per_pe)
        cv = gaps.std() / gaps.mean()
        assert cv == pytest.approx(1.0, abs=0.1)

    def test_zero_rate_empty(self):
        tr = PoissonTraffic(8, Workload(16, 0.0), seed=7)
        assert _collect(tr, 1000) == []

    def test_reproducible(self):
        wl = Workload(16, 0.02)
        a = _collect(PoissonTraffic(8, wl, seed=42), 2000)
        b = _collect(PoissonTraffic(8, wl, seed=42), 2000)
        assert a == b

    def test_seeds_differ(self):
        wl = Workload(16, 0.02)
        a = _collect(PoissonTraffic(8, wl, seed=1), 2000)
        b = _collect(PoissonTraffic(8, wl, seed=2), 2000)
        assert a != b

    def test_requires_two_pes(self):
        with pytest.raises(ConfigurationError):
            PoissonTraffic(1, Workload(16, 0.01))


class TestPatterns:
    def test_permutation_fixed_destination(self):
        tr = PoissonTraffic(
            16, Workload(16, 0.05), seed=8, spec=PermutationSpec(seed=8)
        )
        arrivals = _collect(tr, 10_000)
        dst_by_src: dict[int, set] = {}
        for a in arrivals:
            dst_by_src.setdefault(a.src, set()).add(a.dst)
        assert all(len(d) == 1 for d in dst_by_src.values())

    def test_permutation_is_derangement(self):
        tr = PoissonTraffic(
            16, Workload(16, 0.05), seed=9, spec=PermutationSpec(seed=9)
        )
        perm = tr.spec.permutation_for(16)
        assert sorted(perm) == list(range(16))
        assert all(perm[i] != i for i in range(16))

    def test_hotspot_concentration(self):
        tr = PoissonTraffic(
            16,
            Workload(16, 0.05),
            seed=10,
            spec=make_spec("hotspot", hotspot_fraction=0.5, hotspot_target=3),
        )
        arrivals = _collect(tr, 20_000)
        frac = sum(1 for a in arrivals if a.dst == 3) / len(arrivals)
        assert frac > 0.4

    def test_hotspot_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonTraffic(
                16,
                Workload(16, 0.05),
                spec=make_spec("hotspot", hotspot_fraction=1.5),
            )
        with pytest.raises(ConfigurationError):
            PoissonTraffic(
                16,
                Workload(16, 0.05),
                spec=make_spec("hotspot", hotspot_target=99),
            )

    def test_quad_local_stays_in_quad(self):
        tr = PoissonTraffic(
            16, Workload(16, 0.05), seed=11, spec=make_spec("quad-local")
        )
        for a in _collect(tr, 10_000):
            assert a.src // 4 == a.dst // 4
            assert a.src != a.dst

    def test_quad_local_requires_multiple_of_four(self):
        with pytest.raises(ConfigurationError):
            PoissonTraffic(6, Workload(16, 0.05), spec=make_spec("quad-local"))

    def test_hotspot_fraction_is_exact(self):
        """The fallback excludes the target, so among messages from other
        sources the hot node is hit with probability exactly f (the old
        construction inflated it to f + (1-f)/(N-1) ~ 0.253 here)."""
        tr = PoissonTraffic(
            16,
            Workload(16, 0.2),
            seed=12,
            spec=make_spec("hotspot", hotspot_fraction=0.2, hotspot_target=3),
        )
        arrivals = [a for a in _collect(tr, 20_000) if a.src != 3]
        frac = sum(1 for a in arrivals if a.dst == 3) / len(arrivals)
        assert frac == pytest.approx(0.2, abs=0.015)

    def test_transpose_fixed_points_are_silent(self):
        tr = PoissonTraffic(
            16, Workload(16, 0.05), seed=13, spec=make_spec("transpose")
        )
        arrivals = _collect(tr, 20_000)
        srcs = {a.src for a in arrivals}
        assert srcs == set(range(16)) - {0b0000, 0b0101, 0b1010, 0b1111}
        for a in arrivals:
            lo, hi = a.src & 0b11, a.src >> 2
            assert a.dst == (lo << 2) | hi

    def test_bit_complement_pattern(self):
        tr = PoissonTraffic(
            16, Workload(16, 0.05), seed=14, spec=make_spec("bit-complement")
        )
        assert all(a.dst == a.src ^ 15 for a in _collect(tr, 5000))

    def test_tornado_pattern(self):
        tr = PoissonTraffic(
            16, Workload(16, 0.05), seed=15, spec=make_spec("tornado")
        )
        assert all(a.dst == (a.src + 8) % 16 for a in _collect(tr, 5000))

    def test_bit_reversal_pattern(self):
        tr = PoissonTraffic(
            16, Workload(16, 0.05), seed=16, spec=make_spec("bit-reversal")
        )
        assert tr.spec.name == "bit-reversal"
        reverse = [int(f"{i:04b}"[::-1], 2) for i in range(16)]
        assert all(a.dst == reverse[a.src] for a in _collect(tr, 5000))

    def test_shared_spec_instance_drives_sampling(self):
        spec = PermutationSpec(seed=5)
        tr = PoissonTraffic(16, Workload(16, 0.05), seed=17, spec=spec)
        perm = spec.permutation_for(16)
        assert all(a.dst == perm[a.src] for a in _collect(tr, 5000))


class TestTraceTraffic:
    def test_replay_order_and_horizon(self):
        tr = TraceTraffic([(0.0, 0, 1), (5.0, 1, 2), (10.0, 2, 3)])
        assert [a.time for a in tr.arrivals(10.0)] == [0.0, 5.0]

    def test_rejects_unordered(self):
        with pytest.raises(ConfigurationError):
            TraceTraffic([(5.0, 0, 1), (1.0, 1, 2)])

    def test_rejects_self_message(self):
        with pytest.raises(ConfigurationError):
            TraceTraffic([(0.0, 1, 1)])

    def test_floored_copy(self):
        tr = TraceTraffic([(0.7, 0, 1), (2.3, 1, 0)])
        fl = tr.floored()
        assert [a.time for a in fl.arrivals(10)] == [0.0, 2.0]

    def test_accepts_arrival_objects(self):
        tr = TraceTraffic([Arrival(1.0, 0, 1)])
        assert len(list(tr.arrivals(2.0))) == 1

    def test_floored_preserves_flits(self):
        """Regression: floored() used to drop per-message lengths, silently
        reverting variable-length traces to the workload length."""
        tr = TraceTraffic([Arrival(0.7, 0, 1, flits=8), Arrival(2.3, 1, 0, flits=56)])
        fl = list(tr.floored().arrivals(10))
        assert [a.time for a in fl] == [0.0, 2.0]
        assert [a.flits for a in fl] == [8, 56]

    def test_poisson_trace_properties(self):
        trace = poisson_trace(16, 0.01, 1000.0, seed=3)
        items = list(trace.arrivals(1000.0))
        assert all(a.src != a.dst for a in items)
        assert all(float(a.time).is_integer() for a in items)

    @given(
        n=st.integers(2, 32),
        rate=st.floats(0.001, 0.1),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_arrivals_valid(self, n, rate, seed):
        tr = PoissonTraffic(n, Workload(16, rate), seed=seed)
        prev = -1.0
        for a in tr.arrivals(500):
            assert 0 <= a.src < n
            assert 0 <= a.dst < n
            assert a.src != a.dst
            assert a.time >= prev
            prev = a.time
