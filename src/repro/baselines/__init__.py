"""Prior-art baseline models.

* :class:`DallyKaryNCubeModel` — Dally-style analysis of unidirectional
  k-ary n-cubes (deterministic routing, per-channel M/G/1 contention, no
  wormhole blocking correction);
* :func:`draper_ghosh_variant` — the switches of the Draper–Ghosh-style
  hypercube analysis (the recursion the paper generalises, without the
  paper's blocking correction), the hypercube family's ``baseline``;
* :func:`naive_bft_model` — the butterfly fat-tree model with both of the
  paper's novelties (multi-server queues, blocking correction) disabled.
"""

from ..core.bft_model import ButterflyFatTreeModel
from ..core.variants import ModelVariant
from .dally import DallyKaryNCubeModel
from .draper_ghosh import draper_ghosh_variant

__all__ = [
    "DallyKaryNCubeModel",
    "draper_ghosh_variant",
    "naive_bft_model",
]


def naive_bft_model(num_processors: int) -> ButterflyFatTreeModel:
    """A prior-art-style fat-tree model: independent M/G/1 links, no blocking
    correction.  Used by the ablation experiments as the reference point the
    paper improves upon."""
    return ButterflyFatTreeModel(num_processors, ModelVariant.naive())
