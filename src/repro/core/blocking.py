"""Wormhole blocking-probability correction (Eqs. 9-10).

Plain M/G/m queueing assumes every arrival may have to wait behind any
message in service.  In wormhole routing this over-counts: once a worm
occupies an incoming link, no further arrival can appear on that link until
the worm completes, so a worm arriving on link ``i`` only ever waits for
worms from *other* incoming links.  The paper corrects the queueing wait by
the factor

    ``P_{i|j} = 1 - m * (lambda_i / lambda_j) * R_{i|j}``          (Eq. 10)

— one minus the (approximate) probability that a message currently holding
one of outgoing channel ``j``'s ``m`` servers came from link ``i`` itself —
and charges ``w_{i|j} = P_{i|j} * W_j`` (Eq. 9).  For ``m = 1`` the
expression is exact; for larger ``m`` it ignores the small probability of
multiple same-input messages in service.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["blocking_probability", "blocking_probability_batch"]


def blocking_probability(
    servers: int,
    incoming_rate: float,
    outgoing_total_rate: float,
    routing_probability: float,
    *,
    enabled: bool = True,
) -> float:
    """Evaluate ``P_{i|j}`` (Eq. 10), clamped to ``[0, 1]``.

    Parameters
    ----------
    servers:
        ``m`` — number of servers of the outgoing channel (1 for ordinary
        links, 2 for the fat-tree's up-link pairs).
    incoming_rate:
        ``lambda_i`` — message rate on the incoming link.
    outgoing_total_rate:
        ``lambda_j`` — *total* message rate on the outgoing channel (summed
        over its servers).
    routing_probability:
        ``R_{i|j}`` — probability that a message from ``i`` is routed to
        channel ``j``.
    enabled:
        When False (ablation), returns 1.0 — the uncorrected wait.

    Notes
    -----
    The clamp matters only in extreme asymmetric configurations that the
    paper does not reach (in the fat-tree all arguments keep the expression
    inside ``[0, 1]``); the clamp keeps the generic solver safe on arbitrary
    user-supplied channel graphs.
    """
    if not enabled:
        return 1.0
    if not isinstance(servers, int) or servers < 1:
        raise ConfigurationError(f"servers must be a positive integer, got {servers!r}")
    if incoming_rate < 0 or outgoing_total_rate < 0:
        raise ConfigurationError("rates must be non-negative")
    if not (0.0 <= routing_probability <= 1.0):
        raise ConfigurationError(
            f"routing_probability must be in [0, 1], got {routing_probability!r}"
        )
    if outgoing_total_rate == 0.0:
        # No traffic on the outgoing channel: the wait is zero anyway, and
        # the correction factor is irrelevant; return the m=0 limit of 1.
        return 1.0
    p = 1.0 - servers * (incoming_rate / outgoing_total_rate) * routing_probability
    return min(1.0, max(0.0, p))


def blocking_probability_batch(
    servers: int | np.ndarray,
    incoming_rate: np.ndarray,
    outgoing_total_rate: np.ndarray,
    routing_probability: float | np.ndarray,
    *,
    enabled: bool = True,
) -> np.ndarray:
    """Vectorized ``P_{i|j}`` (Eq. 10) over arrays of channel rates.

    Broadcasts the two rate arrays (a load axis in the batch solvers);
    elementwise identical to :func:`blocking_probability`, including the
    zero-traffic convention ``P = 1`` and the ``[0, 1]`` clamp.
    ``servers`` and ``routing_probability`` may be scalars or arrays that
    broadcast against the rates — the stage-graph engine passes one column
    entry per transition and evaluates every transition of a graph at once.
    """
    inc = np.asarray(incoming_rate, dtype=float)
    out = np.asarray(outgoing_total_rate, dtype=float)
    if not enabled:
        return np.ones(np.broadcast(inc, out).shape)
    if isinstance(servers, np.ndarray):
        if not np.issubdtype(servers.dtype, np.integer) or np.any(servers < 1):
            raise ConfigurationError("servers must be positive integers")
    elif not isinstance(servers, int) or servers < 1:
        raise ConfigurationError(f"servers must be a positive integer, got {servers!r}")
    prob = np.asarray(routing_probability, dtype=float)
    if not np.all((prob >= 0.0) & (prob <= 1.0)):
        raise ConfigurationError(
            f"routing_probability must be in [0, 1], got {routing_probability!r}"
        )
    if np.any(inc < 0) or np.any(out < 0):
        raise ConfigurationError("rates must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 1.0 - servers * (inc / out) * routing_probability
    p = np.minimum(1.0, np.maximum(0.0, p))
    return np.where(out == 0.0, 1.0, p)
