"""Load sweeps: latency-versus-load curves in Figure-3 coordinates.

A :class:`LatencyCurve` is the model-side analogue of one series in the
paper's Figure 3: latency (cycles) sampled over offered load (flits per
cycle per processor) at a fixed message length.  Sweeps saturate gracefully:
points past saturation hold ``inf`` and are reported by ``finite_mask``.

:func:`latency_sweep` evaluates a model's ``latency_batch`` over the
*whole grid in one NumPy pass*; simulated curves have their own per-point
fan-out (:func:`repro.simulation.simulated_latency_curve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .throughput import saturation_injection_rate

__all__ = [
    "LatencyCurve",
    "figure3_grid",
    "latency_sweep",
    "load_grid_to_saturation",
]


@dataclass(frozen=True)
class LatencyCurve:
    """One latency-vs-load series.

    Attributes
    ----------
    label:
        Series name for reports (e.g. ``"Model 64-flit"``).
    message_flits:
        Worm length of the series.
    flit_loads:
        Offered load grid, flits/cycle/PE (Figure 3's x-axis).
    latencies:
        Average latency at each grid point, ``inf`` past saturation.
    """

    label: str
    message_flits: int
    flit_loads: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        if self.flit_loads.shape != self.latencies.shape:
            raise ConfigurationError("flit_loads and latencies must have equal shape")

    @property
    def finite_mask(self) -> np.ndarray:
        """True where the model/simulation produced a finite latency."""
        return np.isfinite(self.latencies)

    @property
    def last_stable_load(self) -> float:
        """Largest grid load with a finite latency (nan when none)."""
        finite = self.flit_loads[self.finite_mask]
        return float(finite.max()) if finite.size else float("nan")

    def as_rows(self) -> list[tuple[float, float]]:
        """(load, latency) pairs for table rendering."""
        return [
            (float(x), float(y)) for x, y in zip(self.flit_loads, self.latencies)
        ]


def latency_sweep(
    model,
    message_flits: int,
    flit_loads: Sequence[float],
    *,
    label: str = "model",
) -> LatencyCurve:
    """Evaluate ``model``'s latency curve over a load grid.

    ``model`` is any object exposing ``latency_batch(rates,
    message_flits)``; the whole grid is solved in one vectorized pass
    (bit-identical to a per-point ``latency`` loop).
    """
    loads = np.asarray(list(flit_loads), dtype=float)
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigurationError("flit_loads must be a non-empty 1-D sequence")
    if np.any(loads < 0):
        raise ConfigurationError("flit_loads must be non-negative")
    # flit_load -> injection rate exactly as Workload.from_flit_load does,
    # so results match the scalar loop.
    lat = np.asarray(
        model.latency_batch(loads / message_flits, message_flits), dtype=float
    )
    return LatencyCurve(
        label=label, message_flits=message_flits, flit_loads=loads, latencies=lat
    )


def figure3_grid(
    saturation_flit_load: float, n_points: int, fraction: float
) -> np.ndarray:
    """The Figure-3 load grid: ``n_points`` uniform steps up to ``fraction``
    of the saturation load, the zero point replaced by a 2% floor.

    Zero load is a degenerate operating point for rate-based simulators,
    so the lowest point sits at 2% of saturation, clamped below the second
    grid point so the grid stays strictly increasing on dense grids.  The
    one grid rule behind :func:`load_grid_to_saturation` and the derived
    curves of :func:`repro.run`.
    """
    grid = np.linspace(0.0, fraction * saturation_flit_load, n_points)
    grid[0] = min(0.02 * saturation_flit_load, grid[1] / 2.0)
    return grid


def load_grid_to_saturation(
    model,
    message_flits: int,
    *,
    n_points: int = 10,
    fraction: float = 0.98,
) -> np.ndarray:
    """Build a :func:`figure3_grid` of ``n_points`` loads up to ``fraction``
    of the model's saturation load.

    This mirrors how Figure 3's x-range terminates just past the knee of the
    curves.
    """
    if n_points < 2:
        raise ConfigurationError("n_points must be >= 2")
    if not (0.0 < fraction < 1.0):
        raise ConfigurationError("fraction must be in (0, 1)")
    sat = saturation_injection_rate(model, message_flits).flit_load
    return figure3_grid(sat, n_points, fraction)
