"""Damped fixed-point iteration.

The generic wormhole model (Eq. 11 of the paper) resolves channel service
times iteratively: on acyclic channel graphs a single reverse sweep suffices,
but on cyclic graphs (k-ary n-cubes with wraparound, or any network whose
channel-dependency graph has loops) the recursion must be iterated to a fixed
point.  This module provides the shared solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConvergenceError
from ..obs.metrics import METRICS

__all__ = ["FixedPointResult", "fixed_point", "fixed_point_batch"]


def _record_solve(iterations: int, residual: float) -> None:
    """Convergence telemetry of one completed solve (no-op when disabled)."""
    if not METRICS.enabled:
        return
    METRICS.add("fixed_point.solves")
    METRICS.observe("fixed_point.iterations", float(iterations))
    if math.isfinite(residual):
        METRICS.observe("fixed_point.residual", residual)


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point iteration.

    Attributes
    ----------
    value:
        The converged vector.
    iterations:
        Number of iterations performed.
    residual:
        Final infinity-norm change between successive iterates.
    converged:
        True when the residual dropped below the tolerance.  (The solver
        raises on non-convergence unless ``allow_divergence`` is set, in
        which case this flag is False and ``value`` holds the last iterate.)
    worst_component:
        Index of the state component with the largest final update (for
        the batched solver, the largest over the still-active points), or
        None when no update was measured.
    """

    value: np.ndarray
    iterations: int
    residual: float
    converged: bool
    worst_component: int | None = None


def fixed_point(
    func: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 1.0,
    allow_divergence: bool = False,
) -> FixedPointResult:
    """Iterate ``x <- (1-d)*x + d*func(x)`` until the change is below ``tol``.

    Parameters
    ----------
    func:
        The map whose fixed point is sought.  May return ``inf`` entries;
        when an iterate becomes non-finite the iteration stops immediately
        and the (non-finite) iterate is returned with ``converged=True`` —
        this is how channel-graph solvers signal saturation, and ``inf`` is a
        legitimate fixed point of a monotone queueing recursion.
    x0:
        Starting vector.
    tol:
        Convergence threshold on the infinity norm of the update.
    max_iter:
        Iteration budget; exceeded budget raises :class:`ConvergenceError`
        unless ``allow_divergence``.
    damping:
        Relaxation factor in (0, 1]; values below 1 stabilise oscillating
        recursions.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    x = np.asarray(x0, dtype=float).copy()
    residual = np.inf
    worst = None
    for it in range(1, max_iter + 1):
        fx = np.asarray(func(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            # Saturation: propagate the non-finite iterate as a terminal state.
            _record_solve(it, np.inf)
            return FixedPointResult(value=fx, iterations=it, residual=np.inf, converged=True)
        new = (1.0 - damping) * x + damping * fx
        update = np.abs(new - x)
        residual = float(np.max(update)) if new.size else 0.0
        worst = int(np.argmax(update)) if new.size else None
        x = new
        if residual <= tol:
            _record_solve(it, residual)
            return FixedPointResult(
                x, iterations=it, residual=residual, converged=True, worst_component=worst
            )
    if allow_divergence:
        _record_solve(max_iter, residual)
        return FixedPointResult(
            x, iterations=max_iter, residual=residual, converged=False, worst_component=worst
        )
    METRICS.add("fixed_point.exhausted")
    raise ConvergenceError(
        f"fixed point not reached after {max_iter} iterations "
        f"(residual {residual:.3e}, worst component {worst})",
        iterations=max_iter,
        residual=residual,
        worst_component=worst,
    )


def fixed_point_batch(
    func: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 1.0,
    allow_divergence: bool = False,
) -> FixedPointResult:
    """Column-batched fixed point: one independent iteration per column.

    ``x0`` has shape ``(S, K)`` — ``S`` state components solved jointly for
    each of ``K`` independent operating points — and ``func`` maps the full
    matrix to a matrix of the same shape.  Unlike :func:`fixed_point`, a
    non-finite entry does not end the whole iteration: the offending
    *column* is frozen at ``inf`` (per-point saturation) and excluded from
    the residual, while the remaining columns keep iterating until every
    active column's update drops below ``tol``.

    ``func`` must tolerate ``inf`` columns in its input (the queueing maps
    used here do: a diverged service time yields diverged waits).
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 2:
        raise ValueError(f"x0 must be 2-D (states, points), got shape {x.shape}")
    n_points = x.shape[1]
    active = np.ones(n_points, dtype=bool)
    residual = np.inf
    worst = None
    for it in range(1, max_iter + 1):
        fx = np.asarray(func(x), dtype=float)
        diverged = active & ~np.all(np.isfinite(fx), axis=0)
        if np.any(diverged):
            x[:, diverged] = np.inf
            active &= ~diverged
        if not np.any(active):
            _record_solve(it, 0.0)
            return FixedPointResult(value=x, iterations=it, residual=0.0, converged=True)
        new = (1.0 - damping) * x[:, active] + damping * fx[:, active]
        update = np.abs(new - x[:, active])
        residual = float(np.max(update)) if new.size else 0.0
        # Worst state component (row) over the still-active points.
        worst = int(np.argmax(np.max(update, axis=1))) if new.size else None
        x[:, active] = new
        if residual <= tol:
            _record_solve(it, residual)
            return FixedPointResult(
                x, iterations=it, residual=residual, converged=True, worst_component=worst
            )
    if allow_divergence:
        _record_solve(max_iter, residual)
        return FixedPointResult(
            x, iterations=max_iter, residual=residual, converged=False, worst_component=worst
        )
    METRICS.add("fixed_point.exhausted")
    raise ConvergenceError(
        f"batched fixed point not reached after {max_iter} iterations "
        f"(residual {residual:.3e}, worst component {worst}, "
        f"active points {int(np.sum(active))}/{n_points})",
        iterations=max_iter,
        residual=residual,
        worst_component=worst,
    )
