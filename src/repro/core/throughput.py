"""Saturation-throughput solver (Section 2.3 / Eq. 26).

The network saturates at the injection rate where the source service time
equals the inter-arrival time: ``x_{0,1} = 1 / lambda_0`` (Eq. 26).  Since
``x_{0,1}`` grows monotonically with load while ``1/lambda_0`` falls, the
crossing is unique; equivalently, saturation is the supremum of injection
rates at which every channel in the model still admits a steady state
(interior channels can saturate first, driving ``x_{0,1}`` to infinity,
which the same criterion captures).

Two search strategies share the same bracketing invariant:

* **Vectorized** (default when the model exposes ``stability_batch``): the
  whole doubling ladder is evaluated in *one* batched model solve, and the
  bracket is then narrowed by solving a uniform grid of interior points per
  pass — a multiway bisection that reaches the same boundary with a handful
  of batched solves instead of ~25 scalar ones.
* **Scalar** (simulators, custom ``stable`` predicates, or models
  without ``stability_batch``): the paper's procedure — "we let source arrival
  rate increase ... until the above equation is satisfied" — bracketing by
  doubling and bisecting to a relative tolerance, one solve per probe.

Both return the stable lower edge of a bracket whose relative width is at
most ``rel_tol``, so their results agree to ``rel_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..config import Workload
from ..errors import ConfigurationError, SaturatedError

__all__ = [
    "SaturationResult",
    "saturation_injection_rate",
    "saturation_flit_load",
]


class _StabilityModel(Protocol):
    """Anything exposing the Eq. 26 stability test (the BFT model does)."""

    def is_stable(self, workload: Workload) -> bool: ...


@dataclass(frozen=True)
class SaturationResult:
    """Saturation point of a model for one message length.

    ``injection_rate`` is the critical ``lambda_0`` (messages/cycle/PE);
    ``flit_load`` the same point in Figure-3 units; the bracket records the
    final search interval.
    """

    message_flits: int
    injection_rate: float
    lower_bound: float
    upper_bound: float

    @property
    def flit_load(self) -> float:
        return self.injection_rate * self.message_flits

    @property
    def workload(self) -> Workload:
        return Workload(self.message_flits, self.injection_rate)


def saturation_injection_rate(
    model: _StabilityModel,
    message_flits: int,
    *,
    initial_rate: float | None = None,
    rel_tol: float = 1e-6,
    max_doublings: int = 60,
    stable: Callable[[Workload], bool] | None = None,
) -> SaturationResult:
    """Find the saturation injection rate of ``model`` (bracket + narrow).

    Parameters
    ----------
    model:
        Object with an ``is_stable(workload)`` method; models that also
        expose ``stability_batch(loads, message_flits)`` get the vectorized
        search (ignored when a custom ``stable`` predicate is supplied).
    message_flits:
        Worm length for the sweep.
    initial_rate:
        Starting guess; defaults to one message per ``100 * F`` cycles,
        comfortably below saturation for every network in the paper.
    rel_tol:
        Relative width of the final bracket.
    max_doublings:
        Budget for the geometric bracket search (in either direction).
    stable:
        Optional replacement stability predicate (used to drive the same
        search with a simulator in the empirical-saturation harness);
        implies the scalar path (``stable=model.is_stable`` runs the
        paper's one-solve-per-probe procedure on any model).
    """
    if not isinstance(message_flits, int) or message_flits <= 0:
        raise ConfigurationError("message_flits must be a positive integer")
    if rel_tol <= 0:
        raise ConfigurationError("rel_tol must be positive")
    lo = initial_rate if initial_rate is not None else 1.0 / (100.0 * message_flits)
    if lo <= 0:
        raise ConfigurationError("initial_rate must be positive")

    if stable is None and hasattr(model, "stability_batch"):
        return _saturation_vectorized(
            model, message_flits, lo, rel_tol=rel_tol, max_doublings=max_doublings
        )
    predicate = stable if stable is not None else model.is_stable
    return _saturation_scalar(
        predicate, message_flits, lo, rel_tol=rel_tol, max_doublings=max_doublings
    )


# --- scalar search (simulators / custom predicates) ---------------------------------


def _saturation_scalar(
    predicate: Callable[[Workload], bool],
    message_flits: int,
    lo: float,
    *,
    rel_tol: float,
    max_doublings: int,
) -> SaturationResult:
    """The seed algorithm: doubling bracket plus bisection, one solve per probe."""
    if not predicate(Workload(message_flits, lo)):
        # Even the starting guess saturates: shrink downwards first.
        hi = lo
        for _ in range(max_doublings):
            lo /= 2.0
            if predicate(Workload(message_flits, lo)):
                break
        else:
            raise SaturatedError(
                "model is unstable at every probed rate; no saturation bracket found"
            )
    else:
        hi = lo
        for _ in range(max_doublings):
            hi *= 2.0
            if not predicate(Workload(message_flits, hi)):
                break
            lo = hi
        else:
            raise SaturatedError(
                "model remained stable at every probed rate; no saturation bracket found"
            )

    # Bisection: invariant lo stable, hi unstable.
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if predicate(Workload(message_flits, mid)):
            lo = mid
        else:
            hi = mid
    return SaturationResult(
        message_flits=message_flits,
        injection_rate=lo,
        lower_bound=lo,
        upper_bound=hi,
    )


# --- vectorized search (batched models) ---------------------------------------------

#: Interior points per refinement solve: each batched pass narrows the
#: bracket by a factor of ``2**_REFINE_DEPTH`` (the multiway analogue of
#: that many bisection steps).
_REFINE_DEPTH = 6


def _saturation_vectorized(
    model,
    message_flits: int,
    start: float,
    *,
    rel_tol: float,
    max_doublings: int,
) -> SaturationResult:
    """Bracket on a geometric ladder, then narrow on uniform grids.

    Every probe ladder/grid is one ``stability_batch`` call, so the whole
    search costs a handful of batched model solves.
    """
    # One batched solve covers the starting guess and the entire upward
    # doubling ladder of the scalar search.
    ladder = start * np.power(2.0, np.arange(max_doublings + 1))
    stab = np.asarray(model.stability_batch(ladder, message_flits), dtype=bool)
    if stab[0]:
        unstable = np.nonzero(~stab)[0]
        if unstable.size == 0:
            raise SaturatedError(
                "model remained stable at every probed rate; no saturation bracket found"
            )
        j = int(unstable[0])
        lo, hi = float(ladder[j - 1]), float(ladder[j])
    else:
        # Even the starting guess saturates: shrink downwards instead.
        ladder = start * np.power(0.5, np.arange(1, max_doublings + 1))
        stab = np.asarray(model.stability_batch(ladder, message_flits), dtype=bool)
        stable_idx = np.nonzero(stab)[0]
        if stable_idx.size == 0:
            raise SaturatedError(
                "model is unstable at every probed rate; no saturation bracket found"
            )
        j = int(stable_idx[0])
        lo = float(ladder[j])
        hi = float(ladder[j - 1]) if j > 0 else start

    # Multiway bisection: each pass solves a uniform grid of interior
    # points in one batch and keeps the sub-interval straddling the
    # stable/unstable boundary (invariant: lo stable, hi unstable).
    while (hi - lo) > rel_tol * hi:
        needed = (hi - lo) / (rel_tol * hi)
        depth = min(_REFINE_DEPTH, max(1, math.ceil(math.log2(needed))))
        grid = np.linspace(lo, hi, 2**depth + 1)
        interior = grid[1:-1]
        if interior[0] <= lo or interior[-1] >= hi:
            break  # bracket is at floating-point resolution already
        stab = np.asarray(model.stability_batch(interior, message_flits), dtype=bool)
        unstable = np.nonzero(~stab)[0]
        if unstable.size == 0:
            lo = float(interior[-1])
        else:
            j = int(unstable[0])
            hi = float(interior[j])
            if j > 0:
                lo = float(interior[j - 1])
    return SaturationResult(
        message_flits=message_flits,
        injection_rate=lo,
        lower_bound=lo,
        upper_bound=hi,
    )


def saturation_flit_load(model: _StabilityModel, message_flits: int, **kwargs) -> float:
    """Convenience wrapper returning the saturation point in flits/cycle/PE."""
    return saturation_injection_rate(model, message_flits, **kwargs).flit_load
