"""Event-driven worm-level wormhole simulator.

Simulates the paper's wormhole semantics exactly, at message (worm)
granularity rather than flit granularity, which keeps the event count at
``O(path length)`` per message:

* a worm acquires the channels on its path one at a time; the head needs
  one cycle per channel, so channel ``k+1`` is requested one cycle after
  channel ``k`` was granted;
* contention for a channel (or for the fat-tree's two-up-link *group*) is
  resolved First-Come First-Served by head-arrival time, with random
  tie-breaking (assumption 3);
* when the head blocks, every flit of the worm blocks in place;
* destinations consume one flit per cycle without blocking (assumption 4).

Under these semantics — with worms longer than their paths, the paper's
long-worm assumption — all stalls happen before the tail leaves the source,
so once the *last* channel is acquired at time ``a_last`` the whole
pipeline drains deterministically:

* channel ``k`` of a ``D``-channel path is released at
  ``a_last - (D-1) + k + F``  (the tail flit has then crossed it), and
* the message is fully received at ``a_last + F``.

This timing algebra is exact for ``F >= D`` (verified against the
independent cycle-level simulator in the test suite); for shorter worms it
errs on the pessimistic side, and the fraction of affected messages is
reported as :attr:`SimulationResult.short_worm_fraction`.
"""

from __future__ import annotations

import heapq

from ..config import SimConfig, Workload
from ..errors import SimulationError
from ..topology.base import SimTopology
from ..util.rng import spawn_rngs
from .metrics import MetricsCollector, SimulationResult
from .routes import InjectionLinks, RouteLinks
from .traffic import PoissonTraffic

__all__ = ["EventDrivenWormholeSimulator", "simulate"]

_EVT_ARRIVAL = 0
_EVT_REQUEST = 1
_EVT_RELEASE = 2


class _Worm:
    """Mutable per-message record."""

    __slots__ = ("src", "dst", "gen_time", "node", "path", "acquires", "tagged", "flits")

    def __init__(
        self, src: int, dst: int, gen_time: float, tagged: bool, flits: int
    ) -> None:
        self.src = src
        self.dst = dst
        self.gen_time = gen_time
        self.node = src
        self.path: list[int] = []
        self.acquires: list[float] = []
        self.tagged = tagged
        self.flits = flits


class EventDrivenWormholeSimulator:
    """Drive a :class:`~repro.topology.base.SimTopology` under offered traffic.

    Parameters
    ----------
    topology:
        Any topology object implementing the SimTopology protocol.
    workload:
        Message length and injection rate (the rate is ignored when an
        explicit ``traffic`` source is supplied).
    config:
        Measurement protocol (warmup/window/horizon) and root seed.
    traffic:
        Optional replacement traffic source (e.g. a trace, or a hotspot
        pattern); defaults to the paper's Poisson/uniform workload.
    keep_samples:
        Retain raw latency samples for percentile statistics.
    """

    def __init__(
        self,
        topology: SimTopology,
        workload: Workload,
        config: SimConfig,
        *,
        traffic=None,
        keep_samples: bool = True,
    ) -> None:
        self.topology = topology
        self.workload = workload
        self.config = config
        self.traffic = traffic or PoissonTraffic(
            topology.num_processors, workload, seed=config.seed
        )
        (self._choice_rng,) = spawn_rngs(config.seed ^ 0x5EED_CAFE, 1)
        self.metrics = MetricsCollector(
            workload,
            config,
            topology.num_processors,
            list(topology.link_class),
            keep_samples=keep_samples,
        )

    # --- main loop ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the event loop until the drain completes or the horizon hits.

        Returns the frozen :class:`SimulationResult`; the simulator is
        single-use (a second call raises
        :class:`~repro.errors.SimulationError`).
        """
        topo = self.topology
        cfg = self.config
        metrics = self.metrics
        metrics.start()
        flits = self.workload.message_flits
        cutoff = cfg.cutoff_cycles
        measure_end = cfg.measure_end
        link_dst = topo.link_dst
        class_id = metrics.link_class_id
        routes = RouteLinks(topo)
        injection = InjectionLinks(topo)
        choice = self._choice_rng

        free = [True] * topo.num_links
        queues: list[list[tuple[float, float, int, _Worm, tuple[int, ...]]]] = [
            [] for _ in range(len(topo.groups))
        ]
        link_group = topo.link_group

        heap: list[tuple[float, int, int, object]] = []
        seq = 0

        def push(time: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, seq, kind, payload))
            seq += 1

        arrival_iter = self.traffic.arrivals(cutoff)
        nxt = next(arrival_iter, None)
        if nxt is not None:
            push(nxt.time, _EVT_ARRIVAL, nxt)

        tagged_outstanding = 0
        now = 0.0

        def grant(worm: _Worm, link: int, time: float) -> None:
            nonlocal tagged_outstanding
            free[link] = False
            worm.path.append(link)
            worm.acquires.append(time)
            metrics.on_acquisition(class_id[link], time)
            nxt_node = link_dst[link]
            if nxt_node == worm.dst:
                self._complete(worm, time, push)
                if worm.tagged:
                    tagged_outstanding -= 1
            else:
                worm.node = nxt_node
                push(time + 1.0, _EVT_REQUEST, worm)

        def request(worm: _Worm, links: tuple[int, ...], time: float) -> None:
            if len(links) == 1:
                link = links[0]
                if free[link]:
                    grant(worm, link, time)
                    return
            else:
                free_links = [e for e in links if free[e]]
                if free_links:
                    link = (
                        free_links[0]
                        if len(free_links) == 1
                        else free_links[int(choice.integers(len(free_links)))]
                    )
                    grant(worm, link, time)
                    return
            g = link_group[links[0]]
            heapq.heappush(queues[g], (time, choice.random(), id(worm), worm, links))

        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if now >= cutoff:
                break
            if kind == _EVT_ARRIVAL:
                a = payload
                tagged = metrics.on_generated(a.time)
                worm = _Worm(
                    a.src, a.dst, a.time, tagged, a.flits if a.flits else flits
                )
                if tagged:
                    tagged_outstanding += 1
                request(worm, injection[a.src], a.time)
                nxt = next(arrival_iter, None)
                if nxt is not None:
                    push(nxt.time, _EVT_ARRIVAL, nxt)
            elif kind == _EVT_REQUEST:
                worm = payload
                request(worm, routes[worm.node, worm.dst], now)
            else:  # _EVT_RELEASE
                link = payload
                if free[link]:
                    raise SimulationError(f"double release of link {link}")
                q = queues[link_group[link]]
                if q:
                    _, _, _, worm, _links = heapq.heappop(q)
                    # FCFS hand-off: the freed link goes to the earliest
                    # waiter at the release instant (the link never idles).
                    grant(worm, link, now)
                else:
                    free[link] = True
            if tagged_outstanding == 0 and now >= measure_end:
                break

        return metrics.finalize(min(now, cutoff))

    # --- completion ---------------------------------------------------------------

    def _complete(self, worm: _Worm, a_last: float, push) -> None:
        """Schedule the deterministic drain once the final channel is acquired."""
        flits = worm.flits
        metrics = self.metrics
        class_id = metrics.link_class_id
        depth = len(worm.path)
        start = a_last - (depth - 1)
        for i, link in enumerate(worm.path):
            release = start + i + flits
            push(release, _EVT_RELEASE, link)
            metrics.on_busy(class_id[link], release - worm.acquires[i], worm.acquires[i])
        metrics.on_delivered(
            worm.gen_time, a_last + flits, worm.tagged, depth, flits
        )


def simulate(
    topology: SimTopology,
    workload: Workload,
    config: SimConfig,
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper around the event-driven simulator."""
    return EventDrivenWormholeSimulator(topology, workload, config, **kwargs).run()
