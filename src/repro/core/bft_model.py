"""The paper's analytical model of the butterfly fat-tree (Section 3).

The 4-2 butterfly fat-tree is the ``(children, parents) = (4, 2)`` member of
the generalized fat-tree family, so :class:`ButterflyFatTreeModel` is a thin
subclass of :class:`~repro.core.generalized_model.GeneralizedFatTreeModel`:
the Eq. 16-24 sweeps, the Eq. 25 latency and the Eq. 26 stability test live
there, written once.  This module adds only what is specific to the BFT —
the ``N = 4**n`` constructor, the pattern-aware per-channel solver
(:meth:`ButterflyFatTreeModel.traffic_model`) and the one-line summary.
"""

from __future__ import annotations

from ..config import Workload
from ..errors import ConfigurationError
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

    def traffic_model(
        self, spec, message_flits: int, *, reference_rate: float | None = None
    ):
        """Pattern-aware per-channel solver for this network and worm length.

        ``spec`` is a :class:`~repro.traffic.spec.TrafficSpec`; the result
        is a :class:`~repro.core.generic_model.ChannelGraphModel` whose
        stages are the *physical* channels carrying the pattern's flow
        (so hotspots and permutations see their hot channels, not class
        averages).  It exposes ``latency_batch`` / ``stability_batch`` and
        therefore sweeps and saturation-searches through the batch engine
        exactly like this model; ``latency_sweep(..., spec=...)`` and
        ``saturation_injection_rate(..., spec=...)`` build it implicitly.

        The graph shares this model's variant switches except
        ``conditional_up_probability``: flow conservation forces the exact
        conditional branching, so the paper's unconditional approximation
        has no per-channel analogue.

        ``reference_rate`` is the (arbitrary, positive) injection rate the
        graph is built at; rates scale linearly, so it only anchors the
        load-grid conversion.
        """
        from ..traffic.analytic import bft_traffic_stage_graph

        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        rate = (
            reference_rate
            if reference_rate is not None
            else 1.0 / (100.0 * message_flits)
        )
        return bft_traffic_stage_graph(
            self.num_processors,
            Workload(message_flits, rate),
            spec,
            variant=self.variant,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"ButterflyFatTreeModel(N={self.num_processors}, levels={self.levels}, "
            f"variant={self.variant.label!r}, D_bar={self.average_distance:.4f})"
        )
