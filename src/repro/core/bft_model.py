"""The paper's analytical model of the butterfly fat-tree (Section 3).

The 4-2 butterfly fat-tree is the ``(children, parents) = (4, 2)`` member of
the generalized fat-tree family, so :class:`ButterflyFatTreeModel` is a thin
subclass of :class:`~repro.core.generalized_model.GeneralizedFatTreeModel`:
the Eq. 16-24 sweeps, the Eq. 25 latency and the Eq. 26 stability test live
there, written once.  This module adds only what is specific to the BFT —
the ``N = 4**n`` constructor and the one-line summary.  Non-uniform
traffic on the BFT is answered by the per-channel stage graph of its
traced flows, resolved through
:meth:`repro.design.families.DesignFamily.evaluator`.
"""

from __future__ import annotations

from ..util.validation import check_power_of
from .generalized_model import BftSolution, GeneralizedFatTreeModel
from .variants import ModelVariant

__all__ = ["BftSolution", "ButterflyFatTreeModel"]


class ButterflyFatTreeModel(GeneralizedFatTreeModel):
    """Analytical latency/throughput model of a butterfly fat-tree.

    Parameters
    ----------
    num_processors:
        ``N = 4**n`` processors (power of four, >= 4).
    variant:
        Approximation switches; defaults to the model exactly as published.

    Examples
    --------
    >>> from repro import ButterflyFatTreeModel, Workload
    >>> model = ButterflyFatTreeModel(1024)
    >>> wl = Workload.from_flit_load(0.02, message_flits=32)
    >>> round(model.latency(wl), 1) > 0
    True
    """

    def __init__(
        self, num_processors: int, variant: ModelVariant | None = None
    ) -> None:
        levels = check_power_of("num_processors", num_processors, 4)
        super().__init__(4, 2, levels, variant)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"ButterflyFatTreeModel(N={self.num_processors}, levels={self.levels}, "
            f"variant={self.variant.label!r}, D_bar={self.average_distance:.4f})"
        )
