"""Cycle-driven flit-level wormhole simulator.

An independent implementation of the same wormhole semantics as
:mod:`repro.simulation.wormhole_sim`, used to cross-validate it.  Instead of
computing channel-release times algebraically from the final acquisition,
this simulator advances every worm flit-by-flit, cycle-by-cycle:

* a worm is a rigid train of ``F`` flits: whenever its head advances one
  channel, every flit behind advances one slot, and when the head blocks
  every flit freezes in place (the paper's blocked-in-place abstraction);
* the *advance count* of a worm equals the number of cycles its head has
  moved; flit ``F-1`` (the tail) leaves channel ``k`` exactly when the
  advance count reaches ``k + F``, at which point the channel is freed for
  the next cycle's arbitration;
* output arbitration is FCFS on head-arrival cycle with random tie-breaks,
  per group (the fat-tree's up-link pairs form two-server groups).

For worms at least as long as their paths the event-driven simulator and
this one produce *identical* per-message timing given identical integer
arrival traces (verified in the test suite); unlike the event-driven
simulator, the rigid-train bookkeeping here stays exact even for worms
shorter than their paths.  The price is O(active worms) work per cycle,
so it is intended for small/medium networks and validation runs.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from ..config import SimConfig, Workload
from ..errors import ConfigurationError
from ..topology.base import SimTopology
from ..util.rng import spawn_rngs
from .metrics import MetricsCollector, SimulationResult
from .routes import InjectionLinks, RouteLinks
from .traffic import Arrival, PoissonTraffic

__all__ = ["FlitLevelWormholeSimulator", "simulate_flit_level"]


class _Worm:
    __slots__ = (
        "src",
        "dst",
        "gen_time",
        "node",
        "path",
        "acquires",
        "advances",
        "final_acquired",
        "tagged",
    )

    def __init__(self, src: int, dst: int, gen_time: float, tagged: bool) -> None:
        self.src = src
        self.dst = dst
        self.gen_time = gen_time
        self.node = src
        self.path: list[int] = []
        self.acquires: list[int] = []
        self.advances = 0
        self.final_acquired = False
        self.tagged = tagged


class FlitLevelWormholeSimulator:
    """Cycle-accurate rigid-worm simulator over integer cycles.

    Arrival times from the traffic source are floored to whole cycles;
    everything else (constructor signature, measurement protocol, result
    type) matches the event-driven simulator.
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

    def run(self) -> SimulationResult:
        """Execute the cycle loop until the drain completes or the horizon hits.

        Returns the frozen :class:`SimulationResult`; the simulator is
        single-use (a second call raises
        :class:`~repro.errors.SimulationError`).
        """
        topo = self.topology
        cfg = self.config
        metrics = self.metrics
        metrics.start()
        flits = self.workload.message_flits
        cutoff = int(cfg.cutoff_cycles)
        measure_end = cfg.measure_end
        link_dst = topo.link_dst
        link_group = topo.link_group
        class_id = metrics.link_class_id
        routes = RouteLinks(topo)
        injection = InjectionLinks(topo)
        rng = self._choice_rng

        free = [True] * topo.num_links
        group_members = [tuple(g) for g in topo.groups]
        queues: list[list[tuple[int, float, int, _Worm]]] = [
            [] for _ in range(len(group_members))
        ]
        active_groups: set[int] = set()

        arrival_iter: Iterator[Arrival] = self.traffic.arrivals(float(cutoff))
        next_arrival = next(arrival_iter, None)

        pending: list[_Worm] = []  # worms issuing their next request this cycle
        draining: list[_Worm] = []  # final channel acquired, tail still moving
        tagged_outstanding = 0
        seq = 0
        t = 0

        def enqueue_request(worm: _Worm, cycle: int) -> None:
            nonlocal seq
            links = routes[worm.node, worm.dst] if worm.path else injection[worm.src]
            g = link_group[links[0]]
            heapq.heappush(queues[g], (cycle, rng.random(), seq, worm))
            active_groups.add(g)
            seq += 1

        def advance(worm: _Worm, cycle: int) -> bool:
            """Move the rigid train one slot; returns True when delivered."""
            worm.advances += 1
            k = worm.advances - flits
            if 0 <= k < len(worm.path):
                link = worm.path[k]
                free[link] = True
                metrics.on_busy(
                    class_id[link], cycle + 1 - worm.acquires[k], worm.acquires[k]
                )
                g = link_group[link]
                if queues[g]:
                    active_groups.add(g)
            if worm.final_acquired and worm.advances == len(worm.path) - 1 + flits:
                metrics.on_delivered(
                    worm.gen_time, float(cycle + 1), worm.tagged, len(worm.path)
                )
                return True
            return False

        while t < cutoff:
            # -- phase 1: arrivals landing this cycle ------------------------------
            while next_arrival is not None and int(next_arrival.time) == t:
                a = next_arrival
                if a.flits is not None and a.flits != flits:
                    raise ConfigurationError(
                        "the flit-level engine supports fixed-length worms only; "
                        "use the event-driven simulator for variable lengths"
                    )
                tagged = metrics.on_generated(t)
                worm = _Worm(a.src, a.dst, float(t), tagged)
                if tagged:
                    tagged_outstanding += 1
                enqueue_request(worm, t)
                next_arrival = next(arrival_iter, None)

            # -- phase 2: requests from worms that crossed a link last cycle -------
            for worm in pending:
                enqueue_request(worm, t)
            pending.clear()

            # -- phase 3: FCFS arbitration per group -------------------------------
            advancing: list[_Worm] = []
            if active_groups:
                for g in sorted(active_groups):
                    q = queues[g]
                    while q:
                        members = [e for e in group_members[g] if free[e]]
                        if not members:
                            break
                        _, _, _, worm = heapq.heappop(q)
                        link = (
                            members[0]
                            if len(members) == 1
                            else members[int(rng.integers(len(members)))]
                        )
                        free[link] = False
                        worm.path.append(link)
                        worm.acquires.append(t)
                        metrics.on_acquisition(class_id[link], t)
                        nxt = link_dst[link]
                        if nxt == worm.dst:
                            worm.final_acquired = True
                        else:
                            worm.node = nxt
                        advancing.append(worm)
                    if not q:
                        active_groups.discard(g)

            # -- phase 4: movement --------------------------------------------------
            still_draining: list[_Worm] = []
            for worm in draining:
                if not advance(worm, t):
                    still_draining.append(worm)
                elif worm.tagged:
                    tagged_outstanding -= 1
            for worm in advancing:
                if advance(worm, t):
                    if worm.tagged:
                        tagged_outstanding -= 1
                elif worm.final_acquired:
                    still_draining.append(worm)
                else:
                    pending.append(worm)
            draining = still_draining

            t += 1
            if tagged_outstanding == 0 and t >= measure_end:
                break

        return metrics.finalize(float(t))


def simulate_flit_level(
    topology: SimTopology,
    workload: Workload,
    config: SimConfig,
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper around the flit-level simulator."""
    return FlitLevelWormholeSimulator(topology, workload, config, **kwargs).run()
