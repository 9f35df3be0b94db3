"""Load sweeps: latency-versus-load curves in Figure-3 coordinates.

A :class:`LatencyCurve` is the model-side analogue of one series in the
paper's Figure 3: latency (cycles) sampled over offered load (flits per
cycle per processor) at a fixed message length.  Sweeps saturate gracefully:
points past saturation hold ``inf`` and are reported by ``finite_mask``.

:func:`latency_sweep` dispatches on the evaluator it is given: a bound
``latency`` method of a model exposing ``latency_batch`` (or the model
itself) is evaluated for the *whole grid in one NumPy pass*; any other
callable falls back to one call per point, optionally fanned out across
worker processes (the right mode for simulator-backed sweeps, whose cost
is per-point, not per-sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..config import Workload
from ..errors import ConfigurationError
from ..util.parallel import parallel_map
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


def _sweep_point(
    flit_load: float, latency_fn: Callable[[Workload], float], message_flits: int
) -> float:
    """One scalar sweep evaluation (module-level so it pickles for workers)."""
    return latency_fn(Workload.from_flit_load(flit_load, message_flits))


def _batch_evaluator(latency_fn):
    """The object whose ``latency_batch`` can evaluate this sweep, or None.

    Batch dispatch applies when the caller hands us either a model object
    directly or a bound ``latency`` method of a model exposing
    ``latency_batch`` — anything else (simulator wrappers, ad-hoc lambdas)
    keeps per-point semantics.
    """
    if hasattr(latency_fn, "latency_batch") and hasattr(latency_fn, "latency"):
        return latency_fn
    owner = getattr(latency_fn, "__self__", None)
    if (
        owner is not None
        and hasattr(owner, "latency_batch")
        and getattr(latency_fn, "__name__", "") == "latency"
    ):
        return owner
    return None


def latency_sweep(
    latency_fn: Callable[[Workload], float],
    message_flits: int,
    flit_loads: Sequence[float],
    *,
    label: str = "model",
    processes: int = 1,
    chunksize: int = 1,
) -> LatencyCurve:
    """Evaluate a latency curve over a load grid.

    ``latency_fn`` is either a per-workload callable (a simulator wrapper,
    or any function of a :class:`Workload` returning cycles, ``inf``
    allowed) or a batch-capable model — a model object, or its bound
    ``latency`` method.  Batch-capable models are solved for the whole grid
    in one vectorized pass (bit-identical to the per-point loop);
    everything else is evaluated point by point, fanned out over
    ``processes`` workers in chunks of ``chunksize`` when requested.
    """
    loads = np.asarray(list(flit_loads), dtype=float)
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigurationError("flit_loads must be a non-empty 1-D sequence")
    if np.any(loads < 0):
        raise ConfigurationError("flit_loads must be non-negative")
    model = _batch_evaluator(latency_fn)
    if model is not None:
        # One batched solve; flit_load -> injection rate exactly as
        # Workload.from_flit_load does, so results match the scalar loop.
        lat = np.asarray(
            model.latency_batch(loads / message_flits, message_flits), dtype=float
        )
    else:
        worker = partial(
            _sweep_point, latency_fn=latency_fn, message_flits=message_flits
        )
        lat = np.array(
            parallel_map(
                worker,
                [float(x) for x in loads],
                processes=processes,
                chunksize=chunksize,
            ),
            dtype=float,
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
