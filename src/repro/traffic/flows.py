"""Per-channel flow propagation: traffic specs -> channel arrival rates.

The paper's Section 3.2 derives per-*class* channel rates (Eq. 14) under
uniform traffic by symmetry.  For an arbitrary destination distribution the
symmetry breaks — a hotspot drives one ejection channel far above its class
average — so this module propagates a :class:`~repro.traffic.spec.TrafficSpec`
through a network's actual routing function and accounts flow on every
*physical* channel:

* :func:`bft_channel_flows` walks the butterfly fat-tree's adaptive
  up/down routing.  Climbing worms split equally over the two parent links
  of every switch (the simulator's uniform tie-break has the same marginal),
  and all level-``l`` ancestors of a leaf cover the same leaf block, so the
  climb distribution is independent of the destination; the descent follows
  the unique down path.  The computation is exact under these routing
  semantics.
* :func:`single_path_flows` walks any deterministically routed topology
  (the e-cube hypercube) destination by destination.

Both return a :class:`ChannelFlows` record normalized *per unit injection
rate* — multiply by ``lambda_0`` for absolute rates — carrying per-link
rates, link-to-link transition flows (which become the routing
probabilities ``R_{i|j}`` of the Section 2 recursion), and the per-source
mean channel distance needed by the Eq. 25 latency formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..topology.base import RouteOptions
from .spec import TrafficSpec, UniformSpec

__all__ = [
    "ChannelFlows",
    "bft_channel_flows",
    "single_path_flows",
    "masked_channel_flows",
]


@dataclass(frozen=True)
class ChannelFlows:
    """Flow accounting of one (topology, traffic spec) pair.

    All quantities are per unit per-source injection rate (``lambda_0 = 1``
    for an activity-1 source); rates scale linearly with the workload.

    Attributes
    ----------
    topology:
        The network the flows were traced on (link ids refer to it).
    link_rate:
        Message rate carried by each physical link, shape ``(num_links,)``.
    edge_flow:
        ``edge_flow[e][f]`` is the rate of messages leaving link ``e``
        directly onto link ``f`` (one dict per link; terminal ejection
        links have empty dicts).
    entry_link:
        Injection link of each *active* source PE.
    source_weight:
        Per-source activity (0 for silent sources of deterministic
        patterns), shape ``(N,)``.
    source_distance:
        Mean path length in channels — injection and ejection included —
        for each active source (``nan`` for silent ones), shape ``(N,)``.
    """

    topology: object
    link_rate: np.ndarray
    edge_flow: tuple[dict[int, float], ...]
    entry_link: dict[int, int]
    source_weight: np.ndarray
    source_distance: np.ndarray

    @property
    def total_rate(self) -> float:
        """Aggregate injected rate (equals the number of active sources)."""
        return float(self.source_weight.sum())

    def average_distance(self) -> float:
        """Traffic-weighted mean channel distance over active sources."""
        w = self.source_weight
        active = w > 0
        return float(np.sum(w[active] * self.source_distance[active]) / w[active].sum())


def _spec_matrix(spec: TrafficSpec, num_pes: int) -> np.ndarray:
    spec.validate(num_pes)
    matrix = np.asarray(spec.destination_matrix(num_pes), dtype=float)
    if matrix.shape != (num_pes, num_pes):
        raise ConfigurationError(
            f"destination matrix must have shape ({num_pes}, {num_pes})"
        )
    if np.any(matrix < 0) or np.any(np.diagonal(matrix) != 0.0):
        raise ConfigurationError(
            "destination matrix must be non-negative with a zero diagonal"
        )
    return matrix


def bft_channel_flows(topology, spec: TrafficSpec) -> ChannelFlows:
    """Exact per-link flows of ``spec`` on a butterfly fat-tree.

    Cost is roughly ``O(N * sqrt(N) * levels)`` for dense destination
    matrices (much less for permutation patterns); instant for the sizes
    the experiments use (``N <= 256``).
    """
    n_pes = topology.num_processors
    levels = topology.levels
    matrix = _spec_matrix(spec, n_pes)
    activity = matrix.sum(axis=1)

    link_rate = np.zeros(topology.num_links)
    edge_flow: tuple[dict[int, float], ...] = tuple(
        {} for _ in range(topology.num_links)
    )
    entry_link: dict[int, int] = {}
    source_distance = np.full(n_pes, np.nan)
    link_dst = topology.link_dst

    def add(e_from: int, e_to: int, mass: float) -> None:
        edge_flow[e_from][e_to] = edge_flow[e_from].get(e_to, 0.0) + mass
        link_rate[e_to] += mass

    def descend(node: int, from_link: int, block_lo: int, block_size: int, pvec) -> None:
        """Push turning flow down the unique per-quarter child links."""
        quarter = block_size // 4
        for qi in range(4):
            sub = pvec[qi * quarter : (qi + 1) * quarter]
            mass = float(sub.sum())
            if mass <= 0.0:
                continue
            qlo = block_lo + qi * quarter
            opts = topology.route_options(node, qlo)
            down = opts.links[0]
            add(from_link, down, mass)
            if quarter > 1:
                descend(opts.next_nodes[0], down, qlo, quarter, sub)

    for s in range(n_pes):
        p = matrix[s]
        weight = float(activity[s])
        if weight <= 0.0:
            continue
        # climb[l]: mass that must reach at least level l (NCA >= l).
        climb = np.zeros(levels + 2)
        for l in range(1, levels + 1):
            blk = 4 ** (l - 1)
            lo = (s // blk) * blk
            climb[l] = weight - float(p[lo : lo + blk].sum())
        source_distance[s] = 2.0 * float(climb[1 : levels + 1].sum()) / weight

        inject = topology.injection_options(s).links[0]
        entry_link[s] = inject
        link_rate[inject] += weight
        # frontier: mass arriving at level-l switches, keyed by incoming link.
        frontier = {inject: weight}
        for l in range(1, levels + 1):
            here, upward = climb[l], climb[l + 1]
            if here <= 0.0:
                break
            blk = 4**l
            lo = (s // blk) * blk
            inner = 4 ** (l - 1)
            ilo = (s // inner) * inner
            p_turn = p[lo : lo + blk].copy()
            p_turn[ilo - lo : ilo - lo + inner] = 0.0
            turning = float(p_turn.sum())
            next_frontier: dict[int, float] = {}
            for e_in, mass in frontier.items():
                switch = link_dst[e_in]
                if turning > 0.0:
                    descend(switch, e_in, lo, blk, p_turn * (mass / here))
                if upward > 0.0:
                    cont = mass * (upward / here)
                    outside = lo + blk if lo + blk < n_pes else lo - 1
                    ups = topology.route_options(switch, outside)
                    share = cont / len(ups.links)
                    for up in ups.links:
                        add(e_in, up, share)
                        next_frontier[up] = next_frontier.get(up, 0.0) + share
            frontier = next_frontier

    return ChannelFlows(
        topology=topology,
        link_rate=link_rate,
        edge_flow=edge_flow,
        entry_link=entry_link,
        source_weight=activity,
        source_distance=source_distance,
    )


def masked_channel_flows(topology, spec: TrafficSpec | None = None) -> ChannelFlows:
    """Exact per-link flows on any (possibly fault-masked) topology.

    Routing-agnostic tracer: every positive-probability (source,
    destination) pair is propagated hop by hop, splitting its mass equally
    over the alternatives each :meth:`route_options` call offers (matching
    the simulators' uniform tie-break).  On a nominal butterfly fat-tree
    this reproduces :func:`bft_channel_flows` exactly up to float summation
    order; on a :class:`~repro.faults.mask.FaultedTopology` the rerouted
    mass concentrates on the surviving siblings, which is precisely the
    redundancy loss the degraded stage graph prices.

    Distances use :meth:`path_length` directly — fault masking only filters
    minimal-routing alternatives, so surviving paths keep nominal lengths.
    Cost is ``O(pairs x hops x frontier width)``, with each
    ``route_options(node, dst)`` asked once per trace.  Dense uniform
    traffic, best of five on a shared two-core x86 host: 28 ms on the
    6-cube, 51 ms on the 4-ary 3-cube, 57 ms on the 64-PE fat-tree, 2.1 s
    on the 256-PE fat-tree.  A partitioned trace stops at the first
    unroutable pair.

    Raises
    ------
    PartitionedNetworkError
        (from the topology's routing) when a traffic-carrying pair has no
        surviving route.
    """
    if spec is None:
        spec = UniformSpec()
    n_pes = topology.num_processors
    matrix = _spec_matrix(spec, n_pes)
    activity = matrix.sum(axis=1)

    link_rate = np.zeros(topology.num_links)
    edge_flow: tuple[dict[int, float], ...] = tuple(
        {} for _ in range(topology.num_links)
    )
    entry_link: dict[int, int] = {}
    source_distance = np.full(n_pes, np.nan)
    # route_options is a pure function of (node, dst) (see
    # tests/test_route_purity.py) and every source destined for d walks
    # the same switches, so one trace asks each question once.
    routes: dict[tuple[int, int], RouteOptions] = {}

    for s in range(n_pes):
        weight = float(activity[s])
        if weight <= 0.0:
            continue
        inj = topology.injection_options(s)
        if len(inj.links) != 1:
            raise ConfigurationError(
                "masked_channel_flows expects a single injection channel; "
                f"PE {s} offers {len(inj.links)}"
            )
        entry_link[s] = inj.links[0]
        hops = 0.0
        for d in np.nonzero(matrix[s] > 0.0)[0]:
            d = int(d)
            mass = float(matrix[s, d])
            link_rate[inj.links[0]] += mass
            hops += mass * topology.path_length(s, d)
            # frontier: in-flight mass keyed by (incoming link, current node).
            frontier = {(inj.links[0], inj.next_nodes[0]): mass}
            while frontier:
                nxt: dict[tuple[int, int], float] = {}
                for (e_in, node), m in frontier.items():
                    if node == d:
                        continue
                    opts = routes.get((node, d))
                    if opts is None:
                        opts = routes[node, d] = topology.route_options(node, d)
                    share = m / len(opts.links)
                    for e_out, n_out in zip(opts.links, opts.next_nodes):
                        edge_flow[e_in][e_out] = (
                            edge_flow[e_in].get(e_out, 0.0) + share
                        )
                        link_rate[e_out] += share
                        key = (e_out, n_out)
                        nxt[key] = nxt.get(key, 0.0) + share
                frontier = nxt
        source_distance[s] = hops / weight

    return ChannelFlows(
        topology=topology,
        link_rate=link_rate,
        edge_flow=edge_flow,
        entry_link=entry_link,
        source_weight=activity,
        source_distance=source_distance,
    )


def single_path_flows(topology, spec: TrafficSpec) -> ChannelFlows:
    """Per-link flows on a deterministically routed topology (e.g. e-cube).

    Walks every positive-probability (source, destination) pair through
    :meth:`route_options`; raises when the topology ever offers more than
    one link (adaptive routing needs a dedicated tracer like
    :func:`bft_channel_flows`).
    """
    n_pes = topology.num_processors
    matrix = _spec_matrix(spec, n_pes)
    activity = matrix.sum(axis=1)

    link_rate = np.zeros(topology.num_links)
    edge_flow: tuple[dict[int, float], ...] = tuple(
        {} for _ in range(topology.num_links)
    )
    entry_link: dict[int, int] = {}
    source_distance = np.full(n_pes, np.nan)
    routes: dict[tuple[int, int], RouteOptions] = {}  # as in masked_channel_flows

    for s in range(n_pes):
        weight = float(activity[s])
        if weight <= 0.0:
            continue
        inj = topology.injection_options(s)
        entry_link[s] = inj.links[0]
        hops = 0.0
        for d in np.nonzero(matrix[s] > 0.0)[0]:
            d = int(d)
            mass = float(matrix[s, d])
            link, node = inj.links[0], inj.next_nodes[0]
            link_rate[link] += mass
            length = 1
            while node != d:
                opts = routes.get((node, d))
                if opts is None:
                    opts = routes[node, d] = topology.route_options(node, d)
                if len(opts.links) != 1:
                    raise ConfigurationError(
                        "single_path_flows requires deterministic routing; "
                        f"node {node} offers {len(opts.links)} links"
                    )
                nxt = opts.links[0]
                edge_flow[link][nxt] = edge_flow[link].get(nxt, 0.0) + mass
                link_rate[nxt] += mass
                link, node = nxt, opts.next_nodes[0]
                length += 1
            hops += mass * length
        source_distance[s] = hops / weight

    return ChannelFlows(
        topology=topology,
        link_rate=link_rate,
        edge_flow=edge_flow,
        entry_link=entry_link,
        source_weight=activity,
        source_distance=source_distance,
    )
