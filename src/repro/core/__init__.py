"""The paper's analytical wormhole-routing model.

* :mod:`repro.core.rates` — channel arrival rates (Eqs. 12-15);
* :mod:`repro.core.blocking` — the wormhole blocking correction (Eqs. 9-10);
* :mod:`repro.core.generalized_model` — the closed-form (c, p) fat-tree
  solver (Eqs. 16-26, written once);
* :mod:`repro.core.bft_model` — the paper's butterfly fat-tree, its
  ``(4, 2)`` member;
* :mod:`repro.core.generic_model` — the general Section-2 recursion on
  arbitrary channel graphs (Eqs. 3, 11), with ready-made fat-tree and
  hypercube instantiations;
* :mod:`repro.core.throughput` — the Eq. 26 saturation solver;
* :mod:`repro.core.sweep` — latency-vs-load curves;
* :mod:`repro.core.variants` — ablation switches.
"""

from .batch import BatchSolution, as_injection_rates
from .bft_model import BftSolution, ButterflyFatTreeModel
from .blocking import blocking_probability, blocking_probability_batch
from .generalized_model import (
    GeneralizedFatTreeModel,
    generalized_average_distance,
    generalized_channel_rates,
    generalized_channel_rates_batch,
    generalized_up_probability,
)
from .generic_model import (
    ChannelGraphModel,
    EntryPoint,
    Stage,
    StageBatchSolution,
    StageSolution,
    Transition,
    bft_stage_graph,
    generalized_fattree_stage_graph,
    hypercube_stage_graph,
)
from .rates import (
    bft_channel_rates,
    bft_channel_rates_for_matrix,
    bft_matrix_up_crossings,
    bft_total_up_crossings,
    conditional_up_probability,
    down_probability,
    up_probability,
)
from .sweep import (
    LatencyCurve,
    latency_sweep,
    load_grid_to_saturation,
)
from .throughput import (
    SaturationResult,
    saturation_flit_load,
    saturation_injection_rate,
)
from .variants import ModelVariant

__all__ = [
    "BatchSolution",
    "as_injection_rates",
    "BftSolution",
    "ButterflyFatTreeModel",
    "blocking_probability",
    "blocking_probability_batch",
    "generalized_channel_rates_batch",
    "StageBatchSolution",
    "GeneralizedFatTreeModel",
    "generalized_average_distance",
    "generalized_channel_rates",
    "generalized_up_probability",
    "ChannelGraphModel",
    "EntryPoint",
    "Stage",
    "StageSolution",
    "Transition",
    "bft_stage_graph",
    "generalized_fattree_stage_graph",
    "hypercube_stage_graph",
    "bft_channel_rates",
    "bft_channel_rates_for_matrix",
    "bft_matrix_up_crossings",
    "bft_total_up_crossings",
    "conditional_up_probability",
    "down_probability",
    "up_probability",
    "LatencyCurve",
    "latency_sweep",
    "load_grid_to_saturation",
    "SaturationResult",
    "saturation_flit_load",
    "saturation_injection_rate",
    "ModelVariant",
]
