"""Traffic generation for the simulators.

The paper's workload is Poisson arrivals with uniformly random destinations
(assumption 1).  :class:`PoissonTraffic` reproduces it exactly — each PE
generates messages with exponential inter-arrival times at rate
``lambda_0`` — and generalizes it along two orthogonal axes:

* **destinations** come from a :class:`~repro.traffic.spec.TrafficSpec`
  (uniform, permutation, hotspot, quad-local, transpose, bit-reversal,
  bit-complement, tornado, or any custom spec).  The same spec drives the
  analytical side (:mod:`repro.traffic.analytic`), so model and simulator
  always describe the *same* workload;
* **arrival timing** can be modulated by
  :class:`~repro.traffic.spec.BurstyArrivals`, a two-state ON-OFF Poisson
  process with the configured long-run rate but bursty short-term
  behaviour.

A traffic source is consumed through :meth:`arrivals`, a time-ordered
iterator of ``(time, src, dst)`` triples; :class:`TraceTraffic` replays an
explicit list, which is how the two simulators are driven with identical
inputs for cross-validation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..config import Workload
from ..errors import ConfigurationError
from ..traffic.spec import BurstyArrivals, TrafficSpec, UniformSpec
from ..util.rng import spawn_rngs

__all__ = [
    "PoissonTraffic",
    "TraceTraffic",
    "Arrival",
    "bimodal_lengths",
    "poisson_trace",
]


@dataclass(frozen=True)
class Arrival:
    """One generated message: creation time, source PE, destination PE.

    ``flits`` optionally overrides the workload's fixed message length for
    this message (variable-length extension; the paper's assumption 2 fixes
    it).  ``None`` means "use the workload length".
    """

    time: float
    src: int
    dst: int
    flits: int | None = None


class PoissonTraffic:
    """Independent Poisson sources with a pluggable destination pattern.

    Parameters
    ----------
    num_pes:
        Number of processing elements.
    workload:
        Injection rate and message length (length is carried by the
        simulator; the source only needs the rate).
    seed:
        Root seed; arrival times, destinations and message lengths draw
        from independent spawned streams.
    spec:
        Destination distribution (a :class:`TrafficSpec`, e.g. from
        :func:`~repro.traffic.spec.make_spec`); defaults to the paper's
        uniform traffic.  Sources the spec marks silent (fixed points of
        deterministic permutations) inject nothing.
    length_sampler:
        Optional callable ``rng -> int`` drawing a per-message length in
        flits (relaxes the paper's fixed-length assumption 2; supported by
        the event-driven simulator).  See :func:`bimodal_lengths`.
    bursty:
        Optional :class:`BurstyArrivals` modifier: each source alternates
        exponentially distributed ON/OFF periods and injects at
        ``rate / duty`` while ON, preserving the long-run rate.
    """

    def __init__(
        self,
        num_pes: int,
        workload: Workload,
        seed: int = 0,
        *,
        spec: TrafficSpec | None = None,
        length_sampler=None,
        bursty: BurstyArrivals | None = None,
    ) -> None:
        if num_pes < 2:
            raise ConfigurationError("traffic requires at least 2 PEs")
        if bursty is not None and not isinstance(bursty, BurstyArrivals):
            raise ConfigurationError(
                f"bursty must be a BurstyArrivals, got {bursty!r}"
            )
        self.num_pes = num_pes
        self.workload = workload
        self.length_sampler = length_sampler
        self.bursty = bursty
        # The third stream is unused; spawning it keeps the length stream's
        # seed where recorded runs expect it.
        self._arrival_rng, self._dst_rng, _, self._len_rng = spawn_rngs(seed, 4)
        spec = spec if spec is not None else UniformSpec()
        spec.validate(num_pes)
        self.spec = spec
        self._activity = np.asarray(spec.source_activity(num_pes), dtype=float)

    # --- destination sampling ---------------------------------------------------

    def sample_destination(self, src: int) -> int:
        """Draw the destination for a message sourced at ``src``."""
        return self.spec.sample_destination(src, self.num_pes, self._dst_rng)

    # --- the arrival stream --------------------------------------------------------

    def arrivals(self, horizon: float) -> Iterator[Arrival]:
        """Yield time-ordered arrivals with ``time < horizon``.

        Per-PE inter-arrival streams are merged through a heap.  Without a
        ``bursty`` modifier each PE is an independent Poisson process of
        rate ``lambda_0`` — exactly the paper's arrival model; with one,
        each PE is a two-state modulated Poisson process with the same
        long-run rate.  Sources the spec marks silent generate nothing, as
        does a zero injection rate.
        """
        lam = self.workload.injection_rate
        if lam <= 0.0:
            return
        rng = self._arrival_rng
        bursty = self.bursty
        activity = self._activity
        scale = 1.0 / lam
        window_end: np.ndarray | None = None
        if bursty is not None:
            scale = scale * bursty.duty  # per-PE rate while ON is lam / duty
            # Every PE starts a fresh ON window at time 0.
            window_end = rng.exponential(bursty.burst_cycles, size=self.num_pes)

        def next_time(pe: int, t: float) -> float:
            # Fractional activity scales the per-PE rate (matching the
            # analytical flow accounting); scaling an Exp(scale) draw by
            # 1/activity is an exact Exp(scale/activity) draw, and keeps
            # the stream bit-identical to older versions when activity is 1.
            if bursty is None:
                return t + float(rng.exponential(scale)) / activity[pe]
            while True:
                t = t + float(rng.exponential(scale)) / activity[pe]
                if t < window_end[pe]:
                    return t
                # Jump to the next ON window; the exponential's memorylessness
                # makes restarting the draw at the window start exact.
                t = window_end[pe] + float(rng.exponential(bursty.off_cycles))
                window_end[pe] = t + float(rng.exponential(bursty.burst_cycles))

        heap: list[tuple[float, int]] = []
        if bursty is None:
            first = rng.exponential(scale, size=self.num_pes)
            starts = [
                float(first[pe]) / activity[pe] if activity[pe] > 0.0 else horizon
                for pe in range(self.num_pes)
            ]
        else:
            starts = [
                next_time(pe, 0.0) if activity[pe] > 0.0 else horizon
                for pe in range(self.num_pes)
            ]
        for pe, t in enumerate(starts):
            if t < horizon:
                heap.append((t, pe))
        heapq.heapify(heap)
        sampler = self.length_sampler
        while heap:
            t, pe = heapq.heappop(heap)
            flits = int(sampler(self._len_rng)) if sampler is not None else None
            yield Arrival(t, pe, self.sample_destination(pe), flits)
            nxt = next_time(pe, t)
            if nxt < horizon:
                heapq.heappush(heap, (nxt, pe))


def bimodal_lengths(short: int, long: int, short_fraction: float):
    """A two-point message-length sampler (e.g. 8-flit requests, 56-flit data).

    Returns a callable suitable for ``PoissonTraffic(length_sampler=...)``.
    """
    if short <= 0 or long <= 0:
        raise ConfigurationError("lengths must be positive")
    if not (0.0 <= short_fraction <= 1.0):
        raise ConfigurationError("short_fraction must be in [0, 1]")

    def sample(rng) -> int:
        return short if rng.random() < short_fraction else long

    return sample


class TraceTraffic:
    """Replay an explicit arrival list (for tests and cross-validation).

    Arrivals must be time-ordered; ``horizon`` simply truncates the replay.
    """

    def __init__(self, trace: Sequence[Arrival] | Iterable[tuple[float, int, int]]):
        items = [a if isinstance(a, Arrival) else Arrival(*a) for a in trace]
        for prev, cur in zip(items, items[1:]):
            if cur.time < prev.time:
                raise ConfigurationError("trace arrivals must be time-ordered")
        for a in items:
            if a.src == a.dst:
                raise ConfigurationError("trace contains a self-addressed message")
        self._items = items

    def arrivals(self, horizon: float) -> Iterator[Arrival]:
        for a in self._items:
            if a.time >= horizon:
                break
            yield a

    def floored(self) -> "TraceTraffic":
        """A copy with integer (floor) arrival times, for the cycle-level sim.

        Per-message ``flits`` overrides are preserved, so variable-length
        traces stay variable-length across the cycle-level cross-check.
        """
        floored = [
            Arrival(float(int(a.time)), a.src, a.dst, a.flits) for a in self._items
        ]
        floored.sort(key=lambda a: a.time)
        return TraceTraffic(floored)


def poisson_trace(
    num_pes: int,
    injection_rate: float,
    horizon: float,
    seed: int,
    *,
    integer_times: bool = True,
) -> TraceTraffic:
    """Generate a shared Poisson/uniform arrival trace.

    With ``integer_times`` the aggregate arrival process is sampled in
    continuous time and floored to whole cycles, so the event-driven and
    flit-level simulators see bit-identical inputs.
    """
    rng = np.random.default_rng(seed)
    items: list[Arrival] = []
    t = 0.0
    total_rate = injection_rate * num_pes
    if total_rate <= 0:
        return TraceTraffic([])
    while True:
        t += float(rng.exponential(1.0 / total_rate))
        if t >= horizon:
            break
        src = int(rng.integers(num_pes))
        dst = int(rng.integers(num_pes - 1))
        if dst >= src:
            dst += 1
        items.append(Arrival(float(int(t)) if integer_times else t, src, dst))
    items.sort(key=lambda a: a.time)
    return TraceTraffic(items)
