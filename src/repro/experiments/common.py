"""Shared experiment infrastructure.

Every experiment in this package regenerates one artifact of the paper's
evaluation (see the per-experiment index in :mod:`repro.experiments`) and
supports two fidelity modes:

* **quick** (default) — small measurement windows and reduced grids, sized
  so the full benchmark suite completes in minutes on a laptop;
* **full** — paper-scale grids and windows, enabled by setting the
  environment variable ``REPRO_FULL=1``.

Experiments return plain result dataclasses with a ``render()`` method
producing the tables the paper reports; the benchmark harness times the
computation and writes the rendered tables under ``benchmarks/results/``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = ["full_mode", "relative_error", "ExperimentMode", "mode"]


def full_mode() -> bool:
    """True when ``REPRO_FULL=1`` is set in the environment."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@dataclass(frozen=True)
class ExperimentMode:
    """Resolved fidelity parameters shared by the experiments."""

    full: bool

    @property
    def warmup_cycles(self) -> float:
        return 10_000.0 if self.full else 3_000.0

    @property
    def measure_cycles(self) -> float:
        return 30_000.0 if self.full else 9_000.0

    @property
    def replications(self) -> int:
        return 3 if self.full else 1

    @property
    def label(self) -> str:
        return "full" if self.full else "quick"


def mode() -> ExperimentMode:
    """The current fidelity mode resolved from the environment."""
    return ExperimentMode(full=full_mode())


def relative_error(model_value: float, reference: float) -> float:
    """Signed relative error of ``model_value`` against ``reference``.

    ``nan`` when the reference is non-finite or zero (no meaningful
    comparison); ``inf`` when only the model diverged.
    """
    if not math.isfinite(reference) or reference == 0.0:
        return math.nan
    if not math.isfinite(model_value):
        return math.inf
    return (model_value - reference) / reference
