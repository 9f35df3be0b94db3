"""Traffic scenarios: destination patterns shared by model and simulators.

``repro.traffic`` makes non-uniform workloads first-class: a
:class:`TrafficSpec` describes a per-source destination distribution once,
and both layers consume it — the simulators sample from it
(``PoissonTraffic(..., spec=...)``) while the analytical side propagates it
into per-channel rates (:func:`bft_channel_flows`, :func:`single_path_flows`)
and a solvable Section 2 stage graph (:func:`stage_graph_from_flows`).
``repro.design.design_family(name).evaluator(params, spec, flits)``
resolves both steps for a registered topology family.
"""

from .analytic import stage_graph_from_flows
from .flows import ChannelFlows, bft_channel_flows, single_path_flows
from .spec import (
    BitComplementSpec,
    BitReversalSpec,
    BurstyArrivals,
    HotspotSpec,
    PermutationSpec,
    QuadLocalSpec,
    TornadoSpec,
    TrafficSpec,
    TransposeSpec,
    UniformSpec,
    available_patterns,
    make_spec,
    pattern_descriptions,
    register_spec,
)

__all__ = [
    "BitComplementSpec",
    "BitReversalSpec",
    "BurstyArrivals",
    "ChannelFlows",
    "HotspotSpec",
    "PermutationSpec",
    "QuadLocalSpec",
    "TornadoSpec",
    "TrafficSpec",
    "TransposeSpec",
    "UniformSpec",
    "available_patterns",
    "bft_channel_flows",
    "make_spec",
    "pattern_descriptions",
    "register_spec",
    "single_path_flows",
    "stage_graph_from_flows",
]
