"""Pattern-aware analytical models: channel flows -> Section 2 stage graphs.

Converts the exact per-channel flow accounting of
:mod:`repro.traffic.flows` into a
:class:`~repro.core.generic_model.ChannelGraphModel`, making non-uniform
destination patterns (and fault-masked topologies) solvable by the same
Eqs. 3-11 recursion (and the same batch engine) that reproduces the
paper's uniform results:

* every physical channel becomes a stage (the fat-tree's redundant up-link
  pairs pool into one two-server stage, exactly like the closed-form
  model's M/G/2 treatment, unless the variant disables it);
* transition probabilities are flow ratios, and the per-queue routing
  probabilities ``R_{i|j}`` feeding the Eq. 10 blocking correction are the
  ratios against the specific feeding link;
* every *active* source contributes an entry point weighted by its traffic
  share with its own mean channel distance, generalizing Eq. 25 to
  asymmetric workloads.

For the uniform spec on a butterfly fat-tree this construction reproduces
the closed-form :class:`~repro.core.bft_model.ButterflyFatTreeModel` with
the exact *conditional* climb probabilities
(:meth:`ModelVariant.conditional_up`) — flow conservation forces the exact
branching, so the paper's unconditional-``P^_l`` approximation has no
per-channel analogue and the ``conditional_up_probability`` switch is
ignored here.  All other variant switches (multi-server pooling, blocking
correction, SCV mode) apply unchanged.

:func:`stage_graph_from_flows` is the only builder: the design-family
resolver (:meth:`repro.design.families.DesignFamily.evaluator`) feeds it
the family's traced flows for every pattern and fault set.
"""

from __future__ import annotations

import numpy as np

from ..config import Workload
from ..core.generic_model import ChannelGraphModel, EntryPoint, Stage, Transition
from ..core.variants import ModelVariant
from ..errors import ConfigurationError
from ..topology.base import DOWN, UP
from .flows import ChannelFlows

__all__ = ["stage_graph_from_flows"]


def _stage_name(topology, members: list[int]) -> str:
    """Readable unique stage names: inj<pe> / ej<pe> / ch<link> / pool<link>."""
    e = members[0]
    cls = topology.link_class[e]
    if len(members) > 1:
        return f"pool{e}"
    if cls.level == 0 and cls.direction == UP:
        return f"inj{topology.link_src[e]}"
    if cls.level == 0 and cls.direction == DOWN:
        return f"ej{topology.link_dst[e]}"
    return f"ch{e}"


def stage_graph_from_flows(
    flows: ChannelFlows,
    workload: Workload,
    variant: ModelVariant | None = None,
) -> ChannelGraphModel:
    """Build the Section 2 stage graph of one traced traffic pattern.

    Channels pool into multi-server stages along the topology's resource
    groups (the fat-tree's up-link pairs) when the variant keeps the
    multi-server treatment; otherwise every link is its own M/G/1 stage.
    Links that carry no flow are omitted.  The graph is built at
    ``workload``'s rate and scales linearly — the returned model's
    ``latency_batch`` / ``stability_batch`` evaluate whole load grids in
    one NumPy pass, and its ``reference_rate`` is the workload's
    ``injection_rate`` so loads keep meaning "lambda_0 per (active) PE".
    """
    variant = variant or ModelVariant.paper()
    topology = flows.topology
    lam0 = workload.injection_rate
    if lam0 <= 0.0:
        raise ConfigurationError(
            "traffic stage graphs need a positive reference injection rate"
        )
    if variant.multiserver_up:
        groups = [list(g) for g in topology.groups]
    else:
        groups = [[e] for e in range(topology.num_links)]
    group_of = np.empty(topology.num_links, dtype=int)
    for gid, members in enumerate(groups):
        for e in members:
            group_of[e] = gid

    rate = flows.link_rate
    group_rate = np.array([sum(rate[e] for e in g) for g in groups])
    names = [
        _stage_name(topology, members) if group_rate[gid] > 0.0 else None
        for gid, members in enumerate(groups)
    ]

    stages: list[Stage] = []
    for gid, members in enumerate(groups):
        if names[gid] is None:
            continue
        # flow and feeding-link rate aggregated per downstream group
        out: dict[int, list[float]] = {}
        for e in members:
            for target_link, flow in flows.edge_flow[e].items():
                tg = int(group_of[target_link])
                rec = out.setdefault(tg, [0.0, 0.0, -1])
                rec[0] += flow
                if rec[2] != e:  # count each feeding link's rate once
                    rec[1] += rate[e]
                    rec[2] = e
        total_out = sum(rec[0] for rec in out.values())
        transitions = []
        for tg, (flow, feed_rate, _) in sorted(out.items()):
            if flow <= 0.0:
                continue
            transitions.append(
                Transition(
                    names[tg],
                    probability=min(1.0, flow / total_out),
                    queue_probability=min(1.0, flow / feed_rate),
                )
            )
        stages.append(
            Stage(
                names[gid],
                rate_per_server=lam0 * float(group_rate[gid]) / len(members),
                servers=len(members),
                transitions=tuple(transitions),
            )
        )

    entries = []
    for s in sorted(flows.entry_link):
        name = names[group_of[flows.entry_link[s]]]
        entries.append(
            EntryPoint(
                name=name,
                weight=float(flows.source_weight[s]),
                distance=float(flows.source_distance[s]),
            )
        )
    if not entries:
        raise ConfigurationError("traffic spec generates no traffic (all sources silent)")
    return ChannelGraphModel(
        stages,
        message_flits=workload.message_flits,
        entries=tuple(entries),
        variant=variant,
        reference_rate=lam0,
    )
