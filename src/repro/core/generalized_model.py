"""Analytical model for generalized (c, p) fat-trees — the conclusion's claim.

The paper closes with: "the framework can be extended for networks that
require queuing models with more than two servers."  This module carries
out that extension.  All of Section 3's derivations generalize directly:

* climb probability:  ``P^_l = (c^n - c^l) / (c^n - 1)``;
* channel rates:      ``lambda_{l,l+1} = lambda_0 * P^_l * (c/p)^l``
  (``N * P^_l * lambda_0`` messages spread over ``N * (p/c)^l`` links);
* down sweep:         one of ``c`` children, ``R = 1/c`` (Eq. 18 shape);
* up sweep:           the ``p`` parent links form one M/G/p channel fed the
  total rate ``p * lambda`` (Eqs. 20-23 shape, with
  :func:`repro.queueing.mgm.mgm_waiting_time` supplying the general-``m``
  Hokstad-style wait), and the turn-down branch targets one of ``c - 1``
  sibling channels;
* latency/throughput: Eqs. 25-26 unchanged, with
  ``D_bar = sum_l 2 l (c^l - c^(l-1)) / (c^n - 1)``.

The butterfly fat-tree of Section 3 is the ``(c, p) = (4, 2)`` member:
:class:`~repro.core.bft_model.ButterflyFatTreeModel` subclasses
:class:`GeneralizedFatTreeModel` and adds only its constructor, pattern
solver and summary, so this module is the one closed-form implementation of
Eqs. 16-24.  ``tests/data/fattree_closed_form_v3.json`` pins its 4-2
answers bit-for-bit to values recorded by repro 3.0.0, and the
stage-graph engine (:func:`~repro.core.generic_model.generalized_fattree_stage_graph`)
re-derives them independently (to a relative 1e-12).

The sweeps are implemented batched: ``solve_batch`` / ``latency_batch``
evaluate a whole vector of injection rates in one NumPy pass (``inf``
propagating per point past saturation), and the scalar ``solve`` /
``latency`` are one-point wrappers over that engine.

Saturated operating points (any channel utilization at or above capacity)
yield ``inf`` waits that propagate to an ``inf`` latency; callers can test
:attr:`BftSolution.saturated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..config import Workload
from ..errors import ConfigurationError
from ..obs.metrics import METRICS
from ..queueing.distributions import scv_for_mode_batch
from ..queueing.mg1 import mg1_waiting_time_batch
from ..queueing.mgm import mgm_waiting_time_batch
from .batch import BatchSolution, as_injection_rates, charged_wait
from .blocking import blocking_probability_batch
from .variants import ModelVariant

__all__ = [
    "BftSolution",
    "GeneralizedFatTreeModel",
    "climb_probability",
    "generalized_up_probability",
    "generalized_channel_rates",
    "generalized_channel_rates_batch",
    "generalized_average_distance",
]


def generalized_up_probability(children: int, levels: int, level: int) -> float:
    """``P^_l`` for block radix ``c``: ``(c^n - c^l) / (c^n - 1)``."""
    if children < 2 or levels < 1:
        raise ConfigurationError("children must be >= 2 and levels >= 1")
    if not (0 <= level <= levels):
        raise ConfigurationError(f"level must be in [0, {levels}], got {level!r}")
    return (children**levels - children**level) / (children**levels - 1)


def climb_probability(
    children: int, levels: int, level: int, *, conditional: bool
) -> float:
    """Probability that a message entering a level-``level`` switch climbs on.

    The paper approximates it by the unconditional ``P^_l``
    (:func:`generalized_up_probability`); the exact conditional form
    ``(c^n - c^l) / (c^n - c^(l-1))`` removes the ``c^(l-1)`` destinations
    of the subtree the message just left (the ``conditional_up_probability``
    variant switch).  Requires ``level >= 1`` when ``conditional``.
    """
    if conditional:
        if level < 1:
            raise ConfigurationError("conditional climb needs level >= 1")
        c, n = children, levels
        return (c**n - c**level) / (c**n - c ** (level - 1))
    return generalized_up_probability(children, levels, level)


def generalized_channel_rates(
    children: int, parents: int, levels: int, injection_rate: float
) -> np.ndarray:
    """Per-link rates ``lambda_{l,l+1} = lambda_0 P^_l (c/p)^l``, l = 0..n-1."""
    if parents < 1:
        raise ConfigurationError("parents must be >= 1")
    if injection_rate < 0:
        raise ConfigurationError("injection_rate must be >= 0")
    ls = np.arange(levels)
    c, n = float(children), levels
    probs = (c**n - c**ls) / (c**n - 1.0)
    return injection_rate * probs * (c / parents) ** ls


def generalized_channel_rates_batch(
    children: int, parents: int, levels: int, injection_rates: np.ndarray
) -> np.ndarray:
    """Per-link rates for a vector of injection rates: shape ``(levels, K)``.

    Column ``k`` is elementwise identical to
    ``generalized_channel_rates(c, p, n, injection_rates[k])``.
    """
    if parents < 1:
        raise ConfigurationError("parents must be >= 1")
    inj = np.asarray(injection_rates, dtype=float)
    if inj.ndim != 1:
        raise ConfigurationError("injection_rates must be a 1-D array")
    if np.any(inj < 0):
        raise ConfigurationError("injection_rates must be >= 0")
    ls = np.arange(levels)
    c, n = float(children), levels
    probs = (c**n - c**ls) / (c**n - 1.0)
    scale = (c / parents) ** ls
    return (inj[np.newaxis, :] * probs[:, np.newaxis]) * scale[:, np.newaxis]


def generalized_average_distance(children: int, levels: int) -> float:
    """``D_bar`` for radix-``c`` blocks (exact rational arithmetic)."""
    if children < 2 or levels < 1:
        raise ConfigurationError("children must be >= 2 and levels >= 1")
    denom = children**levels - 1
    total = Fraction(0)
    for l in range(1, levels + 1):
        total += Fraction(2 * l * (children**l - children ** (l - 1)), denom)
    return float(total)


@dataclass(frozen=True)
class BftSolution:
    """Per-channel-class solution of a fat-tree model at one operating point.

    Returned by :meth:`GeneralizedFatTreeModel.solve` for every ``(c, p)``
    family, the butterfly fat-tree included.  All arrays have length
    ``levels`` and are indexed by the *lower* level of the channel: index
    ``l`` refers to up channel ``<l, l+1>`` and down channel ``<l+1, l>``.
    Rates are per physical link (messages/cycle).
    """

    workload: Workload
    levels: int
    rate: np.ndarray
    down_service: np.ndarray
    down_wait: np.ndarray
    up_service: np.ndarray
    up_wait: np.ndarray
    average_distance: float

    @property
    def saturated(self) -> bool:
        """True when any wait or service time diverged (no steady state)."""
        return not (
            np.all(np.isfinite(self.down_service))
            and np.all(np.isfinite(self.down_wait))
            and np.all(np.isfinite(self.up_service))
            and np.all(np.isfinite(self.up_wait))
        )

    @property
    def injection_wait(self) -> float:
        """``W_{0,1}`` — the M/G/1 wait at the source (Eq. 24)."""
        return float(self.up_wait[0])

    @property
    def injection_service(self) -> float:
        """``x_{0,1}`` — the source service time, including all downstream blocking."""
        return float(self.up_service[0])

    @property
    def latency(self) -> float:
        """Average message latency in cycles (Eq. 25)."""
        if self.saturated:
            return math.inf
        return self.injection_wait + self.injection_service + self.average_distance - 1.0

    def up_utilization(self) -> np.ndarray:
        """Per-server utilization ``rho`` of each up channel class."""
        return self.rate * self.up_service

    def down_utilization(self) -> np.ndarray:
        """Per-server utilization ``rho`` of each down channel class."""
        return self.rate * self.down_service

    def breakdown(self) -> dict[str, float]:
        """Named latency components (for reports and examples)."""
        return {
            "injection_wait": self.injection_wait,
            "injection_service": self.injection_service,
            "pipeline": self.average_distance - 1.0,
            "latency": self.latency,
        }


class GeneralizedFatTreeModel:
    """Latency/throughput model of a ``(children, parents)`` fat-tree.

    Parameters
    ----------
    children, parents, levels:
        Family parameters; the machine has ``children**levels`` PEs and the
        up channels are M/G/``parents`` queues.
    variant:
        Approximation switches; defaults to the model exactly as published.
        ``multiserver_up=False`` degrades every up pair/bundle to
        independent M/G/1 queues.
    """

    def __init__(
        self,
        children: int,
        parents: int,
        levels: int,
        variant: ModelVariant | None = None,
    ) -> None:
        if not isinstance(children, int) or children < 2:
            raise ConfigurationError(f"children must be an integer >= 2, got {children!r}")
        if not isinstance(parents, int) or parents < 1:
            raise ConfigurationError(f"parents must be an integer >= 1, got {parents!r}")
        if not isinstance(levels, int) or levels < 1:
            raise ConfigurationError(f"levels must be an integer >= 1, got {levels!r}")
        self.children = children
        self.parents = parents
        self.levels = levels
        self.num_processors = children**levels
        self.variant = variant or ModelVariant.paper()
        self.average_distance = generalized_average_distance(children, levels)

    def _scv_batch(self, service: np.ndarray, flits: int) -> np.ndarray:
        """Per-point SCV of a channel class (0 past saturation)."""
        return scv_for_mode_batch(self.variant.scv_mode, service, flits)

    # --- solver ----------------------------------------------------------------------

    def solve_batch(self, injection_rates, message_flits: int) -> BatchSolution:
        """Resolve every channel class over a whole vector of injection rates.

        1. **Down sweep** (Eqs. 16-19), from the ejection channels upward:
           a down channel's service time is the downstream service time plus
           the blocking-corrected downstream wait (one of ``c`` children);
           waits are M/G/1 because down links have no redundancy.
        2. **Up sweep** (Eqs. 20-24), from the root level downward: an up
           channel's service time mixes the continue-up branch (weight
           ``P^``) and the turn-down branch (weight ``P#``, one of ``c - 1``
           siblings); up waits use the M/G/p model fed the bundle's total
           rate ``p * lambda`` (the published correction to Eqs. 21/23),
           except the injection channel ``<0,1>``, which has no redundant
           partner and stays M/G/1 (Eq. 24).

        Every stage array carries a trailing load axis, with ``inf``
        propagating per point past saturation.  Column ``k`` is
        bit-identical to the scalar solve at ``injection_rates[k]``.
        """
        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        inj = as_injection_rates(injection_rates)
        c, p, n = self.children, self.parents, self.levels
        flits = message_flits
        blocking = self.variant.blocking_correction
        rate = generalized_channel_rates_batch(c, p, n, inj)  # (levels, K)

        down_service = np.empty_like(rate)
        down_wait = np.empty_like(rate)
        up_service = np.empty_like(rate)
        up_wait = np.empty_like(rate)

        # ---- down sweep: ejection channel first (Eqs. 16-19) ----
        down_service[0] = float(flits)
        down_wait[0] = mg1_waiting_time_batch(
            rate[0], down_service[0], self._scv_batch(down_service[0], flits)
        )
        for l in range(1, n):
            p_block = blocking_probability_batch(
                1, rate[l], rate[l - 1], 1.0 / c, enabled=blocking
            )
            down_service[l] = down_service[l - 1] + charged_wait(
                p_block, down_wait[l - 1]
            )
            down_wait[l] = mg1_waiting_time_batch(
                rate[l], down_service[l], self._scv_batch(down_service[l], flits)
            )

        # ---- up sweep: root level first (Eqs. 20-24) ----
        for u in range(n - 1, -1, -1):
            p_up = climb_probability(
                c, n, u + 1, conditional=self.variant.conditional_up_probability
            )
            p_down = 1.0 - p_up
            service = np.zeros(inj.shape)
            if p_up > 0.0:
                if self.variant.multiserver_up:
                    # One p-server channel per switch, total rate p*lambda,
                    # targeted with the full climb probability.
                    servers, group_rate, queue_prob = p, p * rate[u + 1], p_up
                else:
                    # Ablation: p independent M/G/1 queues, each targeted
                    # with 1/p of the climb probability.
                    servers, group_rate, queue_prob = 1, rate[u + 1], p_up / p
                p_block_up = blocking_probability_batch(
                    servers, rate[u], group_rate, queue_prob, enabled=blocking
                )
                service = service + p_up * (
                    up_service[u + 1] + charged_wait(p_block_up, up_wait[u + 1])
                )
            # Turn-down branch: c - 1 sibling subtrees, one single-server
            # down channel each (the top level has exactly this form, with
            # p_down == 1, reproducing Eq. 20's factor 2/3 when c = 4).
            p_block_down = blocking_probability_batch(
                1, rate[u], rate[u], p_down / (c - 1), enabled=blocking
            )
            service = service + p_down * (
                down_service[u] + charged_wait(p_block_down, down_wait[u])
            )
            up_service[u] = service
            scv = self._scv_batch(up_service[u], flits)
            if u == 0:
                # Injection channel <0,1>: no redundant partner (Eq. 24).
                up_wait[0] = mg1_waiting_time_batch(rate[0], up_service[0], scv)
            elif self.variant.multiserver_up:
                up_wait[u] = mgm_waiting_time_batch(p * rate[u], up_service[u], p, scv)
            else:
                up_wait[u] = mg1_waiting_time_batch(rate[u], up_service[u], scv)

        # A point is saturated when *any* channel class diverged; finite
        # points get the Eq. 25 latency W_{0,1} + x_{0,1} + D_bar - 1.
        finite = (
            np.all(np.isfinite(down_service), axis=0)
            & np.all(np.isfinite(down_wait), axis=0)
            & np.all(np.isfinite(up_service), axis=0)
            & np.all(np.isfinite(up_wait), axis=0)
        )
        if METRICS.enabled:
            # Same counter names as the stage-graph engine, so every
            # analytical family reports identical solve telemetry.
            METRICS.add("solve.batch")
            METRICS.add("solve.points", float(finite.size))
            METRICS.add(
                "solve.saturated_points", float(finite.size - np.count_nonzero(finite))
            )
        latencies = np.where(
            finite, up_wait[0] + up_service[0] + self.average_distance - 1.0, np.inf
        )
        return BatchSolution(
            message_flits=flits,
            injection_rates=inj,
            injection_service=up_service[0],
            injection_wait=up_wait[0],
            latencies=latencies,
            average_distance=self.average_distance,
            details={
                "rate": rate,
                "down_service": down_service,
                "down_wait": down_wait,
                "up_service": up_service,
                "up_wait": up_wait,
            },
        )

    def solve(self, workload: Workload) -> BftSolution:
        """Resolve all channel service and waiting times at ``workload``.

        Thin wrapper over a one-point :meth:`solve_batch`.
        """
        if not isinstance(workload, Workload):
            raise ConfigurationError(f"workload must be a Workload, got {workload!r}")
        batch = self.solve_batch(
            np.array([workload.injection_rate]), workload.message_flits
        )
        return BftSolution(
            workload=workload,
            levels=self.levels,
            average_distance=self.average_distance,
            **{key: column[:, 0].copy() for key, column in batch.details.items()},
        )

    # --- public API ---------------------------------------------------------------------

    def latency(self, workload: Workload) -> float:
        """Average message latency in cycles (``inf`` past saturation)."""
        return self.solve(workload).latency

    def latency_batch(self, loads, message_flits: int) -> np.ndarray:
        """Average latency for a vector of injection rates in one NumPy pass.

        ``loads`` are injection rates ``lambda_0`` in messages/cycle/PE
        (``flit_load / message_flits``, i.e. ``Workload.injection_rate``).
        Entry ``k`` equals ``latency(Workload(message_flits, loads[k]))``
        exactly — the scalar path is a one-point batch of this routine.
        """
        return self.solve_batch(loads, message_flits).latencies

    def stability_batch(self, loads, message_flits: int) -> np.ndarray:
        """Vectorized Eq. 26 stability test (one bool per injection rate)."""
        return self.solve_batch(loads, message_flits).stable_mask

    def latency_at_flit_load(self, flit_load: float, message_flits: int) -> float:
        """Latency with load given in Figure-3 units (flits/cycle/PE)."""
        return self.latency(Workload.from_flit_load(flit_load, message_flits))

    def zero_load_latency(self, message_flits: int) -> float:
        """The contention-free limit ``s/f + D_bar - 1``."""
        return float(message_flits) + self.average_distance - 1.0

    def is_stable(self, workload: Workload) -> bool:
        """True when the model admits a steady state at ``workload``."""
        solution = self.solve(workload)
        if solution.saturated:
            return False
        # Eq. 26: the source must keep up with its own offered rate.
        return workload.injection_rate * solution.injection_service < 1.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"GeneralizedFatTreeModel(c={self.children}, p={self.parents}, "
            f"levels={self.levels}, N={self.num_processors}, "
            f"variant={self.variant.label!r})"
        )
