"""Batch evaluation results: whole load grids solved in one NumPy pass.

The scalar solvers resolve one operating point per call, which makes every
latency-vs-load curve (Figure 3) and every Eq. 26 saturation search O(points
x levels) Python.  The batch engine broadcasts the same Eq. 3-11 recursion
over a *load axis* instead: all per-stage service times, M/G/m waits and
blocking corrections become arrays with one entry per injection rate, and
``inf`` propagates per point past saturation without poisoning the finite
entries.

:class:`BatchSolution` is the result type of the closed-form fat-tree solver,
:meth:`GeneralizedFatTreeModel.solve_batch
<repro.core.generalized_model.GeneralizedFatTreeModel.solve_batch>` (which
also answers :class:`~repro.core.bft_model.ButterflyFatTreeModel`).  Its
scalar ``latency(workload)`` is a thin wrapper over a one-point batch, so
batch and scalar sweeps agree bit-for-bit.  :func:`as_injection_rates` and
:func:`charged_wait` are shared with the stage-graph engine
(:class:`~repro.core.generic_model.ChannelGraphModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

__all__ = ["BatchSolution", "as_injection_rates", "charged_wait"]


def charged_wait(p_block: np.ndarray, wait: np.ndarray) -> np.ndarray:
    """Vectorized blocking charge ``P_{i|j} * W_j`` (Eq. 9).

    A zero blocking probability cancels the wait even when the wait has
    diverged (guards against ``0 * inf -> NaN`` per point).
    """
    with np.errstate(invalid="ignore"):
        product = p_block * wait
    return np.where(np.asarray(p_block) == 0.0, 0.0, product)


def as_injection_rates(loads) -> np.ndarray:
    """Validate and normalize a load grid into a 1-D float array of rates.

    Accepts any sequence or array of non-negative, finite injection rates
    (messages/cycle/PE).  Scalars are promoted to a one-point grid.
    """
    rates = np.atleast_1d(np.asarray(loads, dtype=float))
    if rates.ndim != 1:
        raise ConfigurationError("loads must be a scalar or 1-D sequence")
    if rates.size == 0:
        raise ConfigurationError("loads must be non-empty")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0):
        raise ConfigurationError("loads must be finite and non-negative")
    return rates


@dataclass(frozen=True)
class BatchSolution:
    """Model solution over a whole vector of injection rates.

    All per-point arrays have shape ``(K,)`` where ``K`` is the number of
    operating points; ``details`` optionally carries per-channel-class
    arrays of shape ``(levels, K)`` for callers that need the full solution
    (the scalar ``solve`` wrappers do).

    Attributes
    ----------
    message_flits:
        Worm length ``s/f`` shared by every point of the batch.
    injection_rates:
        The load grid ``lambda_0`` in messages/cycle/PE.
    injection_service:
        ``x_{0,1}`` at each point (drives the Eq. 26 stability test).
    injection_wait:
        ``W_{0,1}`` at each point.
    latencies:
        Average latency (Eq. 25) at each point, ``inf`` past saturation.
    average_distance:
        ``D_bar`` of the network (shared by every point).
    details:
        Optional per-level arrays (``rate``, ``down_service``, ...), each of
        shape ``(levels, K)``.
    """

    message_flits: int
    injection_rates: np.ndarray
    injection_service: np.ndarray
    injection_wait: np.ndarray
    latencies: np.ndarray
    average_distance: float
    details: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        shape = self.injection_rates.shape
        for name in ("injection_service", "injection_wait", "latencies"):
            if getattr(self, name).shape != shape:
                raise ConfigurationError(
                    f"{name} must have shape {shape}, got {getattr(self, name).shape}"
                )

    # --- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.injection_rates.size)

    @property
    def n_points(self) -> int:
        """Number of operating points in the batch."""
        return len(self)

    @property
    def flit_loads(self) -> np.ndarray:
        """The load grid in Figure-3 units (flits/cycle/PE)."""
        return self.injection_rates * self.message_flits

    # --- masks --------------------------------------------------------------

    @property
    def finite_mask(self) -> np.ndarray:
        """True where the point admits a steady state (finite latency)."""
        return np.isfinite(self.latencies)

    @property
    def saturated_mask(self) -> np.ndarray:
        """True where any channel diverged (latency is ``inf``)."""
        return ~self.finite_mask

    @property
    def stable_mask(self) -> np.ndarray:
        """Eq. 26 stability per point: finite and ``lambda_0 x_{0,1} < 1``.

        This is the vectorized analogue of the models' scalar
        ``is_stable(workload)`` and drives the batched saturation bracket.
        """
        with np.errstate(invalid="ignore"):
            keeps_up = self.injection_rates * self.injection_service < 1.0
        return self.finite_mask & keeps_up

    # --- conversions --------------------------------------------------------

    def as_curve(self, label: str = "model"):
        """Render the batch as a :class:`~repro.core.sweep.LatencyCurve`."""
        from .sweep import LatencyCurve

        return LatencyCurve(
            label=label,
            message_flits=self.message_flits,
            flit_loads=self.flit_loads,
            latencies=self.latencies,
        )

    def as_rows(self) -> list[tuple[float, float]]:
        """(flit_load, latency) pairs for table rendering."""
        return [
            (float(x), float(y)) for x, y in zip(self.flit_loads, self.latencies)
        ]
