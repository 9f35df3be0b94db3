"""Cycle-driven input-buffered router simulator with virtual channels.

The paper's model (and our other two simulators) use the classic
*blocked-in-place* wormhole abstraction: a stalled worm freezes where it
is, and channels have no buffering beyond the flit in flight.  Real
routers give every input a small FIFO and often multiplex each physical
link between several *virtual channels* (VCs).  This simulator implements
that microarchitecture:

* every physical link has ``virtual_channels`` VCs; the receiving end of
  each (link, VC) pair owns a FIFO buffer of ``buffer_flits`` flits
  (ejection links deliver straight into the consuming PE — assumption 4);
* a worm's head, once at the front of its input buffer, requests an output
  VC on the next link (FCFS per link group, the fat-tree's adaptive pair
  included); the binding persists until the tail flit crosses the link;
* each physical link forwards at most one flit per cycle, round-robin
  among its VCs with a flit ready and downstream credit available;
* credits are conservative: a buffer slot freed in cycle ``t`` is usable
  from cycle ``t+1``.

Two VC allocation policies are provided:

* ``"any"`` — lowest free VC (fat-trees and hypercubes, whose channel
  dependencies are acyclic, need nothing more);
* ``"dateline"`` — Dally & Seitz's deadlock-avoidance scheme for rings:
  worms use VC 0 within a dimension until they cross the wrap-around link,
  VC 1 afterwards, which breaks the torus's cyclic channel dependency.
  With ``virtual_channels >= 2`` the unidirectional k-ary n-cube becomes
  deadlock-free, enabling torus validation at loads where the VC-less
  simulators (physically correctly) deadlock.

Buffer-depth physics worth knowing (and exercised by the BUF experiment):
with a one-cycle credit turnaround, ``buffer_flits=1`` limits each hop to
one flit every *two* cycles — the classic small-buffer throughput collapse
of credit-based flow control — so the paper's blocked-in-place abstraction
corresponds to ``buffer_flits=2`` (the default), which sustains one flit
per cycle.  Deeper buffers add slack that slightly softens contention at
high load; the BUF experiment quantifies both effects against the paper's
Figure 3 curves.

Performance note: work per cycle is proportional to the number of *active*
links and groups.  All three simulators keep their per-cycle and per-event
state in plain Python lists, sets and dicts (NumPy only draws the random
numbers) and memoize routing answers per run
(:mod:`repro.simulation.routes`).  Host time per simulated cycle, 16-flit
uniform traffic at half the model's saturation load, best of five
2000-cycle runs on a shared 2-vCPU Intel Xeon host under CPython 3.11:

==============  =========  =========
simulator       bft64      hc64
==============  =========  =========
event-driven    10 µs      23 µs
flit-level      11 µs      29 µs
buffered        34 µs      101 µs
==============  =========  =========

(buffered: ``buffer_flits=2``, one VC).  The buffered engine is practical
for the validation sizes (N <= 256) used by the experiments; the
event-driven engine remains the tool of choice for 1024-PE sweeps.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..config import SimConfig, Workload
from ..errors import ConfigurationError, SimulationError
from ..topology.base import SimTopology
from ..topology.kary_ncube import KaryNCube
from ..util.rng import spawn_rngs
from .metrics import MetricsCollector, SimulationResult
from .routes import InjectionLinks, RouteLinks
from .traffic import PoissonTraffic

__all__ = ["BufferedWormholeSimulator", "simulate_buffered", "dateline_policy"]


class _Worm:
    __slots__ = (
        "src",
        "dst",
        "gen_time",
        "node",
        "bindings",
        "sent",
        "tagged",
        "requested",
        "crossed_dateline",
        "current_dim",
    )

    def __init__(self, src: int, dst: int, gen_time: float, tagged: bool) -> None:
        self.src = src
        self.dst = dst
        self.gen_time = gen_time
        self.node = src  # routing node for the next allocation
        self.bindings: list[int] = []  # (link, VC) slot per hop
        self.sent: list[int] = []  # flits sent across each bound hop
        self.tagged = tagged
        self.requested = False  # waiting in a group queue
        self.crossed_dateline = False
        self.current_dim = -1


class _DatelinePolicy:
    """Dally–Seitz dateline VC eligibility for a unidirectional torus."""

    def __init__(self, topology: KaryNCube) -> None:
        self.k = topology.radix
        self.d = topology.dimensions
        self.network_links = topology.num_processors * topology.dimensions

    def classify(self, link: int) -> tuple[int, bool]:
        """(dimension, is_wrap_link) for network links; (-1, False) otherwise."""
        if link >= self.network_links:
            return -1, False
        u, dim = divmod(link, self.d)
        coord = (u // self.k**dim) % self.k
        return dim, coord == self.k - 1

    def eligible(self, worm: _Worm, link: int) -> tuple[int, ...]:
        """VC indices the worm may use on ``link``."""
        dim, _ = self.classify(link)
        if dim < 0:
            return (0, 1)
        if dim != worm.current_dim:
            return (0,)  # entering a new dimension: back to VC 0
        return (1,) if worm.crossed_dateline else (0,)

    def on_allocate(self, worm: _Worm, link: int) -> None:
        """Update the worm's dateline state after a binding is made."""
        dim, is_wrap = self.classify(link)
        if dim < 0:
            return
        if dim != worm.current_dim:
            worm.current_dim = dim
            worm.crossed_dateline = False
        if is_wrap:
            worm.crossed_dateline = True


def dateline_policy(topology: SimTopology) -> _DatelinePolicy:
    """Build the dateline policy; requires a :class:`KaryNCube`."""
    if not isinstance(topology, KaryNCube):
        raise ConfigurationError("dateline_policy requires a KaryNCube topology")
    return _DatelinePolicy(topology)


class BufferedWormholeSimulator:
    """Input-buffered, virtual-channel wormhole simulator (see module docs).

    Parameters
    ----------
    topology:
        Any SimTopology.
    workload / config / traffic / keep_samples:
        As for the other simulators.
    virtual_channels:
        VCs per physical link (>= 1).
    buffer_flits:
        FIFO capacity per (link, VC) input buffer (>= 1).  The default of 2
        is the smallest depth that streams one flit per cycle under the
        one-cycle credit loop; 1 halves the per-hop bandwidth.
    vc_policy:
        ``"any"`` or ``"dateline"``.
    """

    def __init__(
        self,
        topology: SimTopology,
        workload: Workload,
        config: SimConfig,
        *,
        traffic=None,
        keep_samples: bool = True,
        virtual_channels: int = 1,
        buffer_flits: int = 2,
        vc_policy: str = "any",
    ) -> None:
        if not isinstance(virtual_channels, int) or virtual_channels < 1:
            raise ConfigurationError("virtual_channels must be a positive integer")
        if not isinstance(buffer_flits, int) or buffer_flits < 1:
            raise ConfigurationError("buffer_flits must be a positive integer")
        if vc_policy not in ("any", "dateline"):
            raise ConfigurationError(f"unknown vc_policy {vc_policy!r}")
        if vc_policy == "dateline" and virtual_channels < 2:
            raise ConfigurationError("dateline policy requires >= 2 virtual channels")
        self.topology = topology
        self.workload = workload
        self.config = config
        self.vcs = virtual_channels
        self.buffer_flits = buffer_flits
        self.vc_policy_name = vc_policy
        self._policy = dateline_policy(topology) if vc_policy == "dateline" else None
        self.traffic = traffic or PoissonTraffic(
            topology.num_processors, workload, seed=config.seed
        )
        (self._rng,) = spawn_rngs(config.seed ^ 0xBFFE_11, 1)
        self.metrics = MetricsCollector(
            workload,
            config,
            topology.num_processors,
            list(topology.link_class),
            keep_samples=keep_samples,
        )

    # --- main loop --------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the cycle loop; see the module docstring for semantics.

        The simulator is single-use: a second call raises
        :class:`~repro.errors.SimulationError`.
        """
        topo = self.topology
        cfg = self.config
        metrics = self.metrics
        metrics.start()
        flits = self.workload.message_flits
        V = self.vcs
        B = self.buffer_flits
        policy = self._policy
        all_vcs = tuple(range(V))
        # rr_order[p]: the VCs in round-robin order starting at VC p.
        rr_order = [all_vcs[p:] + all_vcs[:p] for p in range(V)]
        cutoff = int(cfg.cutoff_cycles)
        measure_end = cfg.measure_end
        link_dst = topo.link_dst
        link_group = topo.link_group
        class_id = metrics.link_class_id
        routes = RouteLinks(topo)
        injection = InjectionLinks(topo)
        rng = self._rng
        n_links = topo.num_links
        n_pes = topo.num_processors

        is_ejection = [link_dst[e] < n_pes for e in range(n_links)]

        # Per-(link, VC) state, indexed by the slot ``link * V + vc``; an
        # output VC is busy while ``out_worm`` holds the worm bound to it.
        out_worm: list[_Worm | None] = [None] * (n_links * V)
        out_hop = [0] * (n_links * V)
        alloc_cycle = [0] * (n_links * V)
        occupancy = [0] * (n_links * V)
        # FIFO of [worm, arrived, departed] segments per receiving buffer.
        buffer_queue: list[deque] = [deque() for _ in range(n_links * V)]
        rr_pointer = [0] * n_links
        active_links: set[int] = set()

        sources: list[deque] = [deque() for _ in range(n_pes)]
        group_queues: list[list] = [[] for _ in range(len(topo.groups))]
        active_groups: set[int] = set()
        seq = 0

        arrival_iter = self.traffic.arrivals(float(cutoff))
        next_arrival = next(arrival_iter, None)
        tagged_outstanding = 0
        t = 0

        def request_allocation(worm: _Worm, cycle: int) -> None:
            nonlocal seq
            if worm.requested:
                return
            links = routes[worm.node, worm.dst] if worm.bindings else injection[worm.src]
            g = link_group[links[0]]
            heapq.heappush(group_queues[g], (cycle, rng.random(), seq, worm, links))
            active_groups.add(g)
            worm.requested = True
            seq += 1

        while t < cutoff:
            # ---- phase 1: arrivals --------------------------------------------------
            while next_arrival is not None and int(next_arrival.time) == t:
                a = next_arrival
                if a.flits is not None and a.flits != flits:
                    raise ConfigurationError(
                        "the buffered engine supports fixed-length worms only; "
                        "use the event-driven simulator for variable lengths"
                    )
                tagged = metrics.on_generated(t)
                worm = _Worm(a.src, a.dst, float(t), tagged)
                if tagged:
                    tagged_outstanding += 1
                sources[a.src].append(worm)
                if sources[a.src][0] is worm:
                    request_allocation(worm, t)
                next_arrival = next(arrival_iter, None)

            # ---- phase 2: VC allocation (FCFS per VC, no head-of-line) ----------------
            # Requests are served oldest-first, but a requester whose needed
            # VC is busy does not block younger requesters that can use a
            # different free VC — allocation must be per-resource or the
            # dateline scheme's deadlock-freedom argument breaks.
            for g in sorted(active_groups):
                q = group_queues[g]
                kept: list = []
                while q:
                    entry = heapq.heappop(q)
                    worm = entry[3]
                    free_choices = []
                    for link in entry[4]:
                        base = link * V
                        vcs = all_vcs if policy is None else policy.eligible(worm, link)
                        for vc in vcs:
                            if out_worm[base + vc] is None:
                                free_choices.append((link, base + vc))
                                break  # lowest eligible VC per link
                    if not free_choices:
                        kept.append(entry)
                        continue
                    link, slot = (
                        free_choices[0]
                        if len(free_choices) == 1
                        else free_choices[int(rng.integers(len(free_choices)))]
                    )
                    worm.requested = False
                    out_worm[slot] = worm
                    out_hop[slot] = len(worm.bindings)
                    alloc_cycle[slot] = t
                    worm.bindings.append(slot)
                    worm.sent.append(0)
                    worm.node = link_dst[link]
                    metrics.on_acquisition(class_id[link], t)
                    if policy is not None:
                        policy.on_allocate(worm, link)
                    active_links.add(link)
                for entry in kept:
                    heapq.heappush(q, entry)
                if not q:
                    active_groups.discard(g)

            # ---- phase 3: link scheduling (one flit per link, RR over VCs) -----------
            # Only phase 4 changes ``occupancy``, so these reads see the
            # buffer levels at the start of the cycle.
            moves: list[tuple[_Worm, int, int, int]] = []
            for link in list(active_links):
                base = link * V
                any_binding = False
                for vc in rr_order[rr_pointer[link]]:
                    slot = base + vc
                    worm = out_worm[slot]
                    if worm is None:
                        continue
                    any_binding = True
                    hop = out_hop[slot]
                    k = worm.sent[hop]
                    if k >= flits:
                        continue
                    if hop == 0:
                        src_q = sources[worm.src]
                        if not src_q or src_q[0] is not worm:
                            continue
                    else:
                        upq = buffer_queue[worm.bindings[hop - 1]]
                        if not upq or upq[0][0] is not worm or k >= upq[0][1]:
                            continue  # not at front / flit not yet arrived
                    if not is_ejection[link] and occupancy[slot] >= B:
                        continue  # no credit downstream
                    moves.append((worm, hop, link, slot))
                    rr_pointer[link] = (vc + 1) % V
                    break
                if not any_binding:
                    active_links.discard(link)

            # ---- phase 4: apply movements ---------------------------------------------
            delivered_now: list[_Worm] = []
            for worm, hop, link, slot in moves:
                k = worm.sent[hop]
                worm.sent[hop] = k + 1
                is_tail = k == flits - 1

                # departure from the upstream store
                if hop == 0:
                    if is_tail:
                        src_q = sources[worm.src]
                        if not src_q or src_q.popleft() is not worm:
                            raise SimulationError("source queue corrupted")
                        if src_q and not src_q[0].bindings:
                            request_allocation(src_q[0], t + 1)
                else:
                    up_slot = worm.bindings[hop - 1]
                    occupancy[up_slot] -= 1
                    upq = buffer_queue[up_slot]
                    seg = upq[0]
                    seg[2] += 1
                    if seg[2] == flits:
                        upq.popleft()
                        if upq:
                            front = upq[0][0]
                            # The new front worm's head may now be routable:
                            # it still ends at this buffer and has somewhere
                            # to go.
                            if front.bindings[-1] == up_slot and front.node != front.dst:
                                request_allocation(front, t + 1)

                # arrival downstream
                if is_ejection[link]:
                    if is_tail:
                        delivered_now.append(worm)
                else:
                    occupancy[slot] += 1
                    q = buffer_queue[slot]
                    if q and q[-1][0] is worm:
                        q[-1][1] += 1
                    else:
                        q.append([worm, 1, 0])
                    if (
                        k == 0
                        and q[0][0] is worm
                        and link_dst[link] != worm.dst
                    ):
                        # head landed at the buffer front: route next cycle
                        request_allocation(worm, t + 1)

                # tail crossed this link: the output VC frees for reallocation
                if is_tail:
                    out_worm[slot] = None
                    metrics.on_busy(
                        class_id[link], t + 1 - alloc_cycle[slot], alloc_cycle[slot]
                    )
                    g = link_group[link]
                    if group_queues[g]:
                        active_groups.add(g)

            for worm in delivered_now:
                metrics.on_delivered(
                    worm.gen_time, float(t + 1), worm.tagged, len(worm.bindings)
                )
                if worm.tagged:
                    tagged_outstanding -= 1

            t += 1
            if tagged_outstanding == 0 and t >= measure_end:
                break

        return metrics.finalize(float(t))


def simulate_buffered(
    topology: SimTopology,
    workload: Workload,
    config: SimConfig,
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper around the buffered VC simulator."""
    return BufferedWormholeSimulator(topology, workload, config, **kwargs).run()
