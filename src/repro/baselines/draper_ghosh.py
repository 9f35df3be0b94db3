"""Draper–Ghosh-style hypercube analysis (baseline).

Draper & Ghosh (JPDC 23:202-214, 1994) analysed wormhole routing on binary
hypercubes with an iterative M/G/1 scheme working backwards from the
destination, introducing the service-time variability approximation that
the fat-tree paper adopts as its Eq. 5.  What the fat-tree paper *adds* on
top of that style of analysis are the multi-server channels and the
``P_{i|j}`` blocking correction.

The hypercube design family prices this prior art as its ``baseline``:
the general channel-graph recursion of Section 2 on the hypercube with

* single-server M/G/1 waits at every channel (the hypercube has no
  redundant links, so the multi-server ingredient never applies), and
* **no** blocking-probability correction (``P_{i|j} = 1``), since that
  correction is the fat-tree paper's contribution.

``repro experiment other-networks`` compares it with the corrected model
and with simulation, which quantifies the value of the correction on a
second network family.
"""

from __future__ import annotations

from ..core.variants import ModelVariant
from ..queueing.distributions import ScvMode

__all__ = ["draper_ghosh_variant"]


def draper_ghosh_variant() -> ModelVariant:
    """The approximation switches of the Draper–Ghosh-style analysis."""
    return ModelVariant(
        label="draper-ghosh-style",
        multiserver_up=True,  # irrelevant on the hypercube (no pairs)
        blocking_correction=False,
        scv_mode=ScvMode.DRAPER_GHOSH,
    )
