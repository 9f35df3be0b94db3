"""Channel arrival rates for the butterfly fat-tree (Eqs. 12-15).

Under uniform random destinations and steady state (departure rate equals
arrival rate below saturation), all links at the same level running in the
same direction carry equal traffic, so rates are computed per *channel
class* ``<l, l+1>`` / ``<l+1, l>``:

* ``P^_l = (4^n - 4^l) / (4^n - 1)`` — probability a message generated at a
  leaf must rise above level ``l`` (Eq. 12);
* ``lambda_{l,l+1} = lambda_0 * P^_l * 2^l`` — per-link rate on up channels
  from level ``l`` (Eq. 14), since ``P^_l * 4^n * lambda_0`` messages per
  cycle cross the ``4^n / 2^l`` links of that level going up;
* down rates mirror up rates by symmetry (Eq. 15).

The exact *conditional* probability that a message already at level ``l``
(having climbed from ``l-1``) continues upward is
``(4^n - 4^l) / (4^n - 4^{l-1})``; the paper approximates it by the
unconditional ``P^_l``, and both are provided (the choice is a
:class:`~repro.core.variants.ModelVariant` switch).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "up_probability",
    "down_probability",
    "conditional_up_probability",
    "bft_channel_rates",
    "bft_total_up_crossings",
    "bft_matrix_up_crossings",
    "bft_channel_rates_for_matrix",
]


def _check_levels(levels: int) -> None:
    if not isinstance(levels, int) or levels < 1:
        raise ConfigurationError(f"levels must be a positive integer, got {levels!r}")


def up_probability(levels: int, level: int) -> float:
    """``P^_l`` of Eq. 12: probability of rising above ``level``.

    Defined for ``0 <= level <= levels``; ``P^_0 == 1`` (every message
    enters the network) and ``P^_levels == 0`` (nothing rises above the
    root level).
    """
    _check_levels(levels)
    if not (0 <= level <= levels):
        raise ConfigurationError(f"level must be in [0, {levels}], got {level!r}")
    return (4**levels - 4**level) / (4**levels - 1)


def down_probability(levels: int, level: int) -> float:
    """``P#_l = 1 - P^_l`` of Eq. 13."""
    return 1.0 - up_probability(levels, level)


def conditional_up_probability(levels: int, level: int) -> float:
    """Exact P(rise above ``level`` | already climbed to ``level``).

    Conditioning on the message having left its level-``(level-1)`` subtree
    removes ``4^{level-1}`` candidate destinations from the denominator:
    ``(4^n - 4^l) / (4^n - 4^{l-1})``.  Requires ``level >= 1``.
    """
    _check_levels(levels)
    if not (1 <= level <= levels):
        raise ConfigurationError(f"level must be in [1, {levels}], got {level!r}")
    return (4**levels - 4**level) / (4**levels - 4 ** (level - 1))


def bft_channel_rates(levels: int, injection_rate: float) -> np.ndarray:
    """Per-link rates ``lambda_{l,l+1}`` for ``l = 0 .. levels-1`` (Eq. 14).

    Index ``l`` of the returned array is the rate of one up link from level
    ``l`` to ``l+1``; by Eq. 15 it also equals the rate of one down link
    from ``l+1`` to ``l``.  Index 0 is the injection-channel rate
    ``lambda_0`` itself.
    """
    _check_levels(levels)
    if injection_rate < 0:
        raise ConfigurationError(f"injection_rate must be >= 0, got {injection_rate!r}")
    ls = np.arange(levels)
    probs = (4.0**levels - 4.0**ls) / (4.0**levels - 1.0)
    return injection_rate * probs * 2.0**ls


def bft_matrix_up_crossings(levels: int, matrix: np.ndarray) -> np.ndarray:
    """Aggregate level crossings of an arbitrary destination distribution.

    Generalizes the counting argument behind Eq. 14: element ``l`` is the
    total message mass (per unit ``lambda_0``) crossing from level ``l`` to
    ``l + 1`` — every message whose nearest common ancestor with its source
    sits above level ``l``, i.e. whose destination lies outside the
    source's level-``l`` leaf block.  ``matrix`` is a
    :meth:`~repro.traffic.spec.TrafficSpec.destination_matrix`-style
    ``(N, N)`` row-stochastic (or row-zero for silent sources) array.
    """
    _check_levels(levels)
    n = 4**levels
    m = np.asarray(matrix, dtype=float)
    if m.shape != (n, n):
        raise ConfigurationError(f"matrix must have shape ({n}, {n}), got {m.shape}")
    if np.any(m < 0):
        raise ConfigurationError("matrix entries must be non-negative")
    total = float(m.sum())
    crossings = np.empty(levels)
    for l in range(levels):
        block = 4**l
        blocks = m.reshape(n // block, block, n // block, block)
        # mass staying inside a level-l block never crosses level l
        within = float(np.einsum("ijik->", blocks))
        crossings[l] = total - within
    return crossings


def bft_channel_rates_for_matrix(
    levels: int, injection_rate: float, matrix: np.ndarray
) -> np.ndarray:
    """Class-*average* per-link rates under an arbitrary destination matrix.

    The Eq. 14 generalization: the ``bft_matrix_up_crossings`` mass at
    level ``l`` spreads over the ``4**n / 2**l`` up links of that level, so
    the mean per-link rate is ``lambda_0 * crossings_l * 2**l / 4**n`` (by
    flow balance the same average holds for the mirroring down links).
    For the uniform matrix this reproduces :func:`bft_channel_rates`
    exactly.  Note this is the *average* over a class — heterogeneous
    patterns (hotspots) have per-channel spreads that only the flow-level
    accounting in :mod:`repro.traffic.flows` resolves.
    """
    if injection_rate < 0:
        raise ConfigurationError(f"injection_rate must be >= 0, got {injection_rate!r}")
    crossings = bft_matrix_up_crossings(levels, matrix)
    ls = np.arange(levels)
    return injection_rate * crossings * (2.0**ls) / (4.0**levels)


def bft_total_up_crossings(levels: int, injection_rate: float) -> np.ndarray:
    """Aggregate messages/cycle crossing each up level (for flow-balance tests).

    Element ``l`` is ``P^_l * 4^n * lambda_0``, the total up-traffic between
    levels ``l`` and ``l+1``; dividing by the ``4^n / 2^l`` links of that
    level reproduces :func:`bft_channel_rates`.
    """
    _check_levels(levels)
    ls = np.arange(levels)
    probs = (4.0**levels - 4.0**ls) / (4.0**levels - 1.0)
    return probs * (4.0**levels) * injection_rate
