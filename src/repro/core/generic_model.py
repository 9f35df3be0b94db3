"""The general wormhole model of Section 2 on arbitrary channel graphs.

The paper's Section 2 is deliberately network-agnostic: given (a) per-channel
arrival rates, (b) routing probabilities ``R_{i|j}``, and (c) the number of
servers per outgoing channel, Eq. 11 resolves every channel's mean service
time by walking the channel dependency structure backwards from the ejection
channels.  This module implements that general recursion over an explicit
*stage graph*:

* a :class:`Stage` is an equivalence class of statistically identical
  queues — e.g. "all up channels from level 2", or "all dimension-3
  channels of the hypercube".  A stage with ``servers = m`` represents
  queues of ``m`` pooled links (the fat-tree's up-link pairs);
* a :class:`Transition` records the probability mass flowing from one stage
  to another, together with the *per-queue* routing probability ``R_{i|j}``
  used by the blocking correction (these differ when a class contains
  several distinct queues, e.g. the four children of a switch).

On an acyclic stage graph (fat-trees, e-cube hypercubes) a single reverse
topological sweep is exact; on cyclic graphs the same recursion is iterated
to a fixed point (:func:`repro.util.fixedpoint.fixed_point`).

:func:`bft_stage_graph` re-derives the paper's butterfly fat-tree equations
from this general machinery (as the ``(4, 2)`` case of
:func:`generalized_fattree_stage_graph`); the test suite verifies it matches
the closed-form :class:`~repro.core.bft_model.ButterflyFatTreeModel` to a
relative 1e-12 — an independent check of the closed-form sweep.
:func:`hypercube_stage_graph` applies the same machinery to a binary
hypercube — the "other networks" the paper's abstract refers to.

The recursion is implemented batched: because channel rates are linear in
the injection rate, one stage graph describes a whole load sweep, and
``solve_batch`` / ``latency_batch`` evaluate every scale factor in one
NumPy pass (cyclic graphs iterate a column-batched fixed point that
freezes saturated points at ``inf`` while the rest converge).  The scalar
``solve()`` is a cached one-point batch — the graph is immutable, so
``latency()`` and ``injection_service()`` share a single resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..analysis.findings import ERROR, Finding
from ..config import Workload
from ..errors import ConfigurationError, ConvergenceError
from ..obs import METRICS, trace_span
from ..queueing.distributions import scv_for_mode_batch
from ..queueing.mgm import mgm_waiting_time_batch
from ..topology.properties import hypercube_average_distance
from ..util.fixedpoint import fixed_point_batch
from ..util.validation import check_power_of
from .batch import as_injection_rates, charged_wait
from .blocking import blocking_probability_batch
from .generalized_model import (
    climb_probability,
    generalized_average_distance,
    generalized_channel_rates,
)
from .variants import ModelVariant

__all__ = [
    "Transition",
    "Stage",
    "StageSolution",
    "StageBatchSolution",
    "EntryPoint",
    "ChannelGraphModel",
    "bft_stage_graph",
    "generalized_fattree_stage_graph",
    "hypercube_stage_graph",
]


@dataclass(frozen=True)
class Transition:
    """Routing edge between stages.

    Attributes
    ----------
    target:
        Name of the downstream stage.
    probability:
        Total probability mass a message on the source stage sends to the
        target *class* (weights the service-time mixture, Eq. 3).
    queue_probability:
        ``R_{i|j}`` toward one specific queue of the target class (enters
        the blocking correction, Eq. 10).  Defaults to ``probability``;
        pass e.g. ``probability / 4`` when the class consists of four
        interchangeable single-server queues.
    """

    target: str
    probability: float
    queue_probability: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"transition probability must be in [0,1], got {self.probability!r}"
            )
        qp = self.queue_probability
        if qp is not None and not (0.0 <= qp <= 1.0):
            raise ConfigurationError(
                f"queue_probability must be in [0,1], got {qp!r}"
            )

    @property
    def effective_queue_probability(self) -> float:
        return self.probability if self.queue_probability is None else self.queue_probability


@dataclass(frozen=True)
class Stage:
    """A class of statistically identical channels (see module docstring).

    ``rate_per_server`` is the message rate carried by one physical link;
    the queue seen by an arriving worm has ``servers`` links and total rate
    ``servers * rate_per_server``.  A stage with no transitions is terminal
    (an ejection channel) and has service time exactly one message length.
    """

    name: str
    rate_per_server: float
    servers: int = 1
    transitions: tuple[Transition, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.rate_per_server < 0:
            raise ConfigurationError(
                f"stage {self.name!r}: rate_per_server must be >= 0"
            )
        if not isinstance(self.servers, int) or self.servers < 1:
            raise ConfigurationError(
                f"stage {self.name!r}: servers must be a positive integer"
            )
        total = sum(t.probability for t in self.transitions)
        if self.transitions and not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ConfigurationError(
                f"stage {self.name!r}: transition probabilities sum to {total}, not 1"
            )

    @property
    def total_rate(self) -> float:
        """Total arrival rate of one queue of this class."""
        return self.servers * self.rate_per_server

    @property
    def is_terminal(self) -> bool:
        return not self.transitions


@dataclass(frozen=True)
class StageSolution:
    """Resolved mean service time and queue wait of one stage."""

    service: float
    wait: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.service) and math.isfinite(self.wait)


@dataclass(frozen=True)
class EntryPoint:
    """One injection stage of a (possibly asymmetric) workload.

    ``weight`` is the share of total traffic injected through the stage
    (normalized by the model); ``distance`` is the mean channel count —
    injection and ejection channels included — of messages entering there,
    so the Eq. 25 latency generalizes to
    ``L = sum_e w_e * (W_e + x_e + D_e) - 1``.
    """

    name: str
    weight: float
    distance: float

    def __post_init__(self) -> None:
        if not (self.weight > 0.0) or not math.isfinite(self.weight):
            raise ConfigurationError(
                f"entry {self.name!r}: weight must be positive, got {self.weight!r}"
            )
        if not (self.distance > 0.0) or not math.isfinite(self.distance):
            raise ConfigurationError(
                f"entry {self.name!r}: distance must be positive, got {self.distance!r}"
            )


@dataclass(frozen=True)
class StageBatchSolution:
    """One stage's (service, wait) arrays over a batch of operating points.

    Both arrays have shape ``(K,)`` — one entry per rate scale passed to
    :meth:`ChannelGraphModel.solve_batch`.
    """

    service: np.ndarray
    wait: np.ndarray

    @property
    def finite_mask(self) -> np.ndarray:
        """True where both moments are finite (steady state per point)."""
        return np.isfinite(self.service) & np.isfinite(self.wait)


class ChannelGraphModel:
    """General wormhole-latency solver over a stage graph (Eqs. 3-11).

    Parameters
    ----------
    stages:
        The channel classes; names must be unique and transition targets
        must exist.
    message_flits:
        Worm length ``s/f``.
    entry:
        Name of the injection stage; its wait/service feed the latency
        formula (Eq. 1).  Symmetric-workload form — exactly one of
        ``entry`` and ``entries`` must be given.
    average_distance:
        Mean path length ``D_bar`` in channels (including injection and
        ejection channels), used by Eq. 2.  Required with ``entry``.
    entries:
        Asymmetric-workload form: several weighted :class:`EntryPoint`
        records (one per injection stage), each with its own mean channel
        distance.  Latency and the Eq. 26 stability test are evaluated per
        entry and traffic-weighted (the pattern-aware builders in
        :mod:`repro.traffic.analytic` use this).
    variant:
        Approximation switches shared with the closed-form model.
    reference_rate:
        The per-PE injection rate the graph's stage rates were built at;
        ``latency_batch`` / ``stability_batch`` convert absolute load grids
        to scale factors against it.  Defaults to the entry stage's
        ``rate_per_server``.
    """

    def __init__(
        self,
        stages: list[Stage],
        *,
        message_flits: int,
        entry: str | None = None,
        average_distance: float | None = None,
        entries: tuple[EntryPoint, ...] | None = None,
        variant: ModelVariant | None = None,
        reference_rate: float | None = None,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError("stage names must be unique")
        self.stages = {s.name: s for s in stages}
        for s in stages:
            for t in s.transitions:
                if t.target not in self.stages:
                    raise ConfigurationError(
                        f"stage {s.name!r} references unknown target {t.target!r}"
                    )
        if (entry is None) == (entries is None):
            raise ConfigurationError(
                "exactly one of entry and entries must be provided"
            )
        if entries is None:
            if average_distance is None:
                raise ConfigurationError("average_distance is required with entry")
            entries = (EntryPoint(entry, 1.0, average_distance),)
        elif not entries:
            raise ConfigurationError("entries must be non-empty")
        total_weight = sum(e.weight for e in entries)
        entries = tuple(
            EntryPoint(e.name, e.weight / total_weight, e.distance) for e in entries
        )
        for e in entries:
            if e.name not in self.stages:
                raise ConfigurationError(f"entry stage {e.name!r} not defined")
        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        if average_distance is None:
            average_distance = sum(e.weight * e.distance for e in entries)
        if average_distance <= 0:
            raise ConfigurationError("average_distance must be positive")
        if reference_rate is not None and reference_rate <= 0.0:
            raise ConfigurationError("reference_rate must be positive")
        self.message_flits = message_flits
        self.entries = entries
        self.entry = entry if entry is not None else max(entries, key=lambda e: e.weight).name
        self.average_distance = average_distance
        self.variant = variant or ModelVariant.paper()
        self.reference_rate = reference_rate
        order = self._topological_order()
        acyclic = len(order) == len(self.stages)
        self._order = order if acyclic else None
        # Stages the traversal never reaches sit on or feed into a cycle.
        self._cycle_members = [] if acyclic else sorted(set(self.stages) - set(order))
        # The graph is immutable, so the unit-scale solution is computed at
        # most once per instance (latency() and injection_service() share it).
        self._solution: dict[str, StageSolution] | None = None

    # --- structure ------------------------------------------------------------

    def _topological_order(self) -> list[str]:
        """Reverse-dependency order (terminals first) of every stage Kahn's
        traversal reaches; stages on or feeding into a cycle are left out."""
        indeg = {name: len(s.transitions) for name, s in self.stages.items()}
        rev: dict[str, list[str]] = {name: [] for name in self.stages}
        for name, s in self.stages.items():
            for t in s.transitions:
                rev[t.target].append(name)
        ready = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for upstream in rev[n]:
                indeg[upstream] -= 1
                if indeg[upstream] == 0:
                    ready.append(upstream)
        return order

    @property
    def is_acyclic(self) -> bool:
        """True when one reverse sweep solves the graph exactly."""
        return self._order is not None

    def check(
        self, *, expect_acyclic: bool | None = None, load_scale: float = 1.0
    ) -> list[Finding]:
        """Static pre-solve checks; returns findings instead of solving.

        Verifies — without running any fixed point — that (a) the entry
        weights still sum to 1 (REP103), (b) the graph structure matches
        the solver the caller intends to use (REP102: ``expect_acyclic=True``
        demands a feed-forward graph; ``False``/``None`` accepts cycles,
        which the batched fixed point handles), and (c) a *necessary*
        stability condition holds at ``load_scale`` times the built rates
        (REP104): service of a worm takes at least ``message_flits`` cycles,
        so a stage with ``total_rate * scale * message_flits >= servers``
        is certainly saturated (Eq. 26 can only be tighter).
        """
        findings: list[Finding] = []
        total_weight = sum(e.weight for e in self.entries)
        if not math.isclose(total_weight, 1.0, rel_tol=0.0, abs_tol=1e-9) or not all(
            math.isfinite(e.weight) and e.weight >= 0.0 for e in self.entries
        ):
            findings.append(
                Finding(
                    rule="REP103",
                    severity=ERROR,
                    message=(
                        f"entry-point weights sum to {total_weight!r}, expected 1"
                    ),
                    channel="entries",
                    hint="entry weights must form a probability distribution",
                )
            )
        if expect_acyclic is True and not self.is_acyclic:
            members = self._cycle_members
            shown = ", ".join(members[:6]) + ("..." if len(members) > 6 else "")
            findings.append(
                Finding(
                    rule="REP102",
                    severity=ERROR,
                    message=(
                        "stage graph is cyclic but the feed-forward solver was "
                        f"requested; cycle-reachable stages: {shown}"
                    ),
                    channel=members[0] if members else "graph",
                    hint="use the cyclic batch solver or fix the transition graph",
                )
            )
        if math.isfinite(load_scale) and load_scale > 0.0:
            for name in sorted(self.stages):
                stage = self.stages[name]
                demand = stage.total_rate * load_scale * self.message_flits
                if demand >= stage.servers:
                    findings.append(
                        Finding(
                            rule="REP104",
                            severity=ERROR,
                            message=(
                                f"stage {name!r} is saturated at the requested "
                                f"load: rho >= {demand / stage.servers:.3f} even "
                                "at the minimal service time "
                                f"({self.message_flits} flit cycles)"
                            ),
                            channel=name,
                            hint="lower the injection rate below saturation",
                        )
                    )
        return findings

    # --- solving ----------------------------------------------------------------

    def _wait_batch(self, stage: Stage, service: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """Per-point M/G/m wait of one stage (``inf`` where diverged)."""
        scv = scv_for_mode_batch(self.variant.scv_mode, service, self.message_flits)
        return mgm_waiting_time_batch(stage.servers * rate, service, stage.servers, scv)

    def _service_of_batch(
        self,
        stage: Stage,
        solved: dict[str, StageBatchSolution],
        rates: dict[str, np.ndarray],
        n_points: int,
    ) -> np.ndarray:
        """Eq. 11 service-time mixture of one stage, over the load axis."""
        if stage.is_terminal:
            return np.full(n_points, float(self.message_flits))
        total = np.zeros(n_points)
        for t in stage.transitions:
            if t.probability == 0.0:
                continue
            down = solved[t.target]
            target = self.stages[t.target]
            p_block = blocking_probability_batch(
                target.servers,
                rates[stage.name],
                target.servers * rates[t.target],
                t.effective_queue_probability,
                enabled=self.variant.blocking_correction,
            )
            total = total + t.probability * (
                down.service + charged_wait(p_block, down.wait)
            )
        return total

    def solve_batch(self, rate_scales) -> dict[str, StageBatchSolution]:
        """Resolve every stage over a vector of traffic scale factors.

        Channel rates are linear in the injection rate, so one stage graph
        built at a reference workload describes a whole load sweep: entry
        ``k`` of the result scales every stage's rate by ``rate_scales[k]``.
        Acyclic graphs are solved in one reverse sweep with all per-stage
        arrays broadcast over the load axis; cyclic graphs iterate Eq. 11
        with :func:`~repro.util.fixedpoint.fixed_point_batch`, freezing
        saturated points at ``inf`` while the rest converge.
        """
        scales = as_injection_rates(rate_scales)
        if METRICS.enabled:
            METRICS.add("solve.batch")
            METRICS.add("solve.points", float(scales.size))
        rates = {
            name: stage.rate_per_server * scales
            for name, stage in self.stages.items()
        }
        with trace_span(
            "solve/stage_graph", stages=len(self.stages), points=int(scales.size)
        ):
            if self._order is not None:
                solved: dict[str, StageBatchSolution] = {}
                for name in self._order:
                    stage = self.stages[name]
                    service = self._service_of_batch(stage, solved, rates, scales.size)
                    solved[name] = StageBatchSolution(
                        service, self._wait_batch(stage, service, rates[name])
                    )
            else:
                solved = self._solve_cyclic_batch(rates, scales.size)
        if METRICS.enabled:
            # Same rule as the closed-form engines: a point is saturated
            # when any stage diverged.
            finite = self._finite_mask(solved)
            METRICS.add(
                "solve.saturated_points",
                float(finite.size - np.count_nonzero(finite)),
            )
        return solved

    def _solve_cyclic_batch(
        self, rates: dict[str, np.ndarray], n_points: int
    ) -> dict[str, StageBatchSolution]:
        names = sorted(self.stages)
        idx = {n: i for i, n in enumerate(names)}

        def step(x: np.ndarray) -> np.ndarray:
            solved = {
                n: StageBatchSolution(
                    x[idx[n]], self._wait_batch(self.stages[n], x[idx[n]], rates[n])
                )
                for n in names
            }
            out = np.empty_like(x)
            for n in names:
                out[idx[n]] = self._service_of_batch(
                    self.stages[n], solved, rates, n_points
                )
            return out

        x0 = np.full((len(names), n_points), float(self.message_flits))
        # Near saturation the iteration's contraction rate approaches 1
        # (critical slowing down), so a strict 1e-12 tolerance can exhaust
        # any budget while the answer is already correct to far better than
        # a millicycle — e.g. asymmetric degraded-fabric traffic on a torus.
        # An exhausted budget is therefore accepted when the residual is
        # below this floor, and diagnosed as a ConvergenceError otherwise.
        residual_floor = 1e-6
        try:
            with trace_span("solve/fixed_point", points=n_points):
                result = fixed_point_batch(
                    step, x0, tol=1e-12, max_iter=20_000, damping=0.5
                )
        except ConvergenceError as exc:
            if exc.residual <= residual_floor:
                METRICS.add("fixed_point.exhausted_accepted")
                with trace_span("solve/fixed_point", points=n_points, retry=True):
                    result = fixed_point_batch(
                        step,
                        x0,
                        tol=1e-12,
                        max_iter=20_000,
                        damping=0.5,
                        allow_divergence=True,
                    )
            else:
                channel = (
                    names[exc.worst_component]
                    if exc.worst_component is not None
                    else None
                )
                raise ConvergenceError(
                    f"cyclic channel-graph solve did not converge"
                    f"{f' (worst channel {channel!r})' if channel else ''}: {exc}",
                    iterations=exc.iterations,
                    residual=exc.residual,
                    worst_component=exc.worst_component,
                    worst_channel=channel,
                ) from exc
        solved = {}
        for n in names:
            stage = self.stages[n]
            service = result.value[idx[n]]
            solved[n] = StageBatchSolution(
                service, self._wait_batch(stage, service, rates[n])
            )
        return solved

    def solve(self) -> dict[str, StageSolution]:
        """Resolve every stage's (service, wait) pair at the built workload.

        Thin wrapper over a one-point :meth:`solve_batch` at scale 1.  The
        stage graph is immutable, so the result is computed once and cached;
        treat the returned mapping as read-only.
        """
        if self._solution is None:
            batch = self.solve_batch(np.ones(1))
            self._solution = {
                name: StageSolution(float(s.service[0]), float(s.wait[0]))
                for name, s in batch.items()
            }
        return self._solution

    # --- outputs ------------------------------------------------------------------

    def _check_flits(self, message_flits: int | None) -> None:
        if message_flits is not None and message_flits != self.message_flits:
            raise ConfigurationError(
                f"stage graph was built for message_flits={self.message_flits}, "
                f"got {message_flits}"
            )

    def _reference_rate(self) -> float:
        reference = (
            self.reference_rate
            if self.reference_rate is not None
            else self.stages[self.entry].rate_per_server
        )
        if reference <= 0.0:
            raise ConfigurationError(
                "load-grid evaluation needs a graph built at a positive "
                "reference rate (rates scale linearly from that reference)"
            )
        return reference

    def _finite_mask(self, solved: dict[str, StageBatchSolution]) -> np.ndarray:
        """Per-point steady state over *all* stages (matching the closed-form
        models, whose solutions count as saturated when any channel class
        diverged)."""
        masks = [s.finite_mask for s in solved.values()]
        out = masks[0].copy()
        for m in masks[1:]:
            out &= m
        return out

    def _latency_from(self, solved: dict[str, StageBatchSolution]) -> np.ndarray:
        """Traffic-weighted Eq. 25 over the entry points (``inf`` past saturation)."""
        finite = self._finite_mask(solved)
        total = np.zeros_like(finite, dtype=float)
        with np.errstate(invalid="ignore"):
            for e in self.entries:
                stage = solved[e.name]
                total = total + e.weight * (stage.wait + stage.service + e.distance)
        return np.where(finite, total - 1.0, np.inf)

    def latency(self) -> float:
        """Average latency via Eqs. 1-2 (``inf`` past saturation).

        With several entry points this is the traffic-weighted mean of the
        per-source latencies ``W_e + x_e + D_e - 1``.
        """
        solved = {
            name: StageBatchSolution(np.array([s.service]), np.array([s.wait]))
            for name, s in self.solve().items()
        }
        return float(self._latency_from(solved)[0])

    def injection_service(self) -> float:
        """Traffic-weighted entry service time (drives the Eq. 26 test)."""
        solved = self.solve()
        return sum(e.weight * solved[e.name].service for e in self.entries)

    def latency_batch(self, loads, message_flits: int | None = None) -> np.ndarray:
        """Average latency over a vector of injection rates in one pass.

        ``loads`` are absolute injection rates ``lambda_0`` per PE; they are
        converted to scale factors against :attr:`reference_rate` (by
        default the entry stage's built rate, which therefore must be
        positive).  ``message_flits``, when given, must match the graph's
        fixed worm length — the parameter exists for signature parity with
        the closed-form models' ``latency_batch``.
        """
        self._check_flits(message_flits)
        rates = as_injection_rates(loads)
        return self._latency_from(self.solve_batch(rates / self._reference_rate()))

    def stability_batch(self, loads, message_flits: int | None = None) -> np.ndarray:
        """Vectorized Eq. 26 stability test (one bool per injection rate).

        A point is stable when every stage admits a steady state *and*
        every entry keeps up with its own offered rate
        (``lambda_e * x_e < 1``).  This is the API the vectorized
        saturation search (:func:`repro.core.throughput.saturation_injection_rate`)
        consumes, so stage-graph models — including the pattern-aware ones —
        saturation-search through the batch engine.
        """
        self._check_flits(message_flits)
        rates = as_injection_rates(loads)
        reference = self._reference_rate()
        solved = self.solve_batch(rates / reference)
        ok = self._finite_mask(solved)
        for e in self.entries:
            stage = solved[e.name]
            entry_rate = self.stages[e.name].rate_per_server * rates / reference
            with np.errstate(invalid="ignore"):
                keeps_up = entry_rate * stage.service < 1.0
            ok &= np.where(np.isfinite(stage.service), keeps_up, False)
        return ok

    def is_stable(self, workload: Workload) -> bool:
        """Eq. 26 stability of one operating point (enables saturation search)."""
        if not isinstance(workload, Workload):
            raise ConfigurationError(f"workload must be a Workload, got {workload!r}")
        self._check_flits(workload.message_flits)
        return bool(
            self.stability_batch(np.array([workload.injection_rate]))[0]
        )


# --- ready-made stage graphs -------------------------------------------------------


def bft_stage_graph(
    num_processors: int,
    workload: Workload,
    variant: ModelVariant | None = None,
) -> ChannelGraphModel:
    """Express the butterfly fat-tree in the general stage-graph form.

    The ``(4, 2)`` case of :func:`generalized_fattree_stage_graph`, sized by
    ``N = 4**n``.  Stage names: ``up0 .. up{n-1}`` (``up0`` is the
    injection channel) and ``down0 .. down{n-1}`` (``down0`` is the
    ejection channel), indexed by the lower level exactly like
    :class:`~repro.core.generalized_model.BftSolution`'s arrays.  Solving
    this graph reproduces the closed-form
    :class:`~repro.core.bft_model.ButterflyFatTreeModel` to a relative
    1e-12 (asserted in the test suite).
    """
    levels = check_power_of("num_processors", num_processors, 4)
    return generalized_fattree_stage_graph(4, 2, levels, workload, variant)


def generalized_fattree_stage_graph(
    children: int,
    parents: int,
    levels: int,
    workload: Workload,
    variant: ModelVariant | None = None,
) -> ChannelGraphModel:
    """Express a generalized (c, p) fat-tree in the stage-graph form.

    Down channels ``down{l}`` feed ``down{l-1}`` through one of ``c``
    interchangeable children; up channels pool ``p`` links into one M/G/p
    queue above the injection level, and their turn-down branch targets
    one of ``c - 1`` sibling channels.  Solving this graph reproduces
    :class:`~repro.core.generalized_model.GeneralizedFatTreeModel` to a
    relative 1e-12 (asserted in the test suite), which certifies that the
    closed-form sweep is an instance of the paper's Section-2 recursion.
    """
    variant = variant or ModelVariant.paper()
    if not isinstance(children, int) or children < 2:
        raise ConfigurationError(f"children must be an integer >= 2, got {children!r}")
    if not isinstance(parents, int) or parents < 1:
        raise ConfigurationError(f"parents must be an integer >= 1, got {parents!r}")
    if not isinstance(levels, int) or levels < 1:
        raise ConfigurationError(f"levels must be an integer >= 1, got {levels!r}")
    c, p, n = children, parents, levels
    rate = generalized_channel_rates(c, p, n, workload.injection_rate)

    stages: list[Stage] = [Stage("down0", rate_per_server=float(rate[0]))]
    for l in range(1, n):
        stages.append(
            Stage(
                f"down{l}",
                rate_per_server=float(rate[l]),
                transitions=(Transition(f"down{l-1}", 1.0, 1.0 / c),),
            )
        )
    for u in range(n - 1, -1, -1):
        p_up = climb_probability(
            c, n, u + 1, conditional=variant.conditional_up_probability
        )
        p_down = 1.0 - p_up
        transitions: list[Transition] = []
        if p_up > 0.0:
            queue_prob = p_up if variant.multiserver_up else p_up / p
            transitions.append(Transition(f"up{u+1}", p_up, queue_prob))
        transitions.append(Transition(f"down{u}", p_down, p_down / (c - 1)))
        servers = p if (u >= 1 and variant.multiserver_up) else 1
        stages.append(
            Stage(
                f"up{u}",
                rate_per_server=float(rate[u]),
                servers=servers,
                transitions=tuple(transitions),
            )
        )
    return ChannelGraphModel(
        stages,
        message_flits=workload.message_flits,
        entry="up0",
        average_distance=generalized_average_distance(c, n),
        variant=variant,
    )


def hypercube_stage_graph(
    dimension: int,
    workload: Workload,
    variant: ModelVariant | None = None,
) -> ChannelGraphModel:
    """The general model instantiated on a binary hypercube with e-cube routing.

    E-cube resolves address bits from the highest dimension down, so the
    stage graph ``inject -> dim{d-1} -> ... -> dim0 -> eject`` is acyclic.
    Under uniform traffic every dimension-``k`` channel carries
    ``lambda_0 * 2^(d-1) / (2^d - 1)``; after crossing dimension ``k`` the
    next differing dimension is ``j < k`` with probability ``2^(j-k)`` and
    the message ejects with probability ``2^-k``.
    """
    variant = variant or ModelVariant.paper()
    if not isinstance(dimension, int) or dimension < 1:
        raise ConfigurationError(f"dimension must be a positive integer, got {dimension!r}")
    d = dimension
    n_nodes = 1 << d
    lam0 = workload.injection_rate
    lam_dim = lam0 * (n_nodes // 2) / (n_nodes - 1)

    stages: list[Stage] = [Stage("eject", rate_per_server=lam0)]
    for k in range(d):
        transitions = [
            Transition(f"dim{j}", 2.0 ** (j - k)) for j in range(k - 1, -1, -1)
        ]
        transitions.append(Transition("eject", 2.0**-k))
        stages.append(
            Stage(
                f"dim{k}",
                rate_per_server=lam_dim,
                transitions=tuple(transitions),
            )
        )
    inject_transitions = tuple(
        Transition(f"dim{k}", (1 << k) / (n_nodes - 1)) for k in range(d)
    )
    stages.append(
        Stage("inject", rate_per_server=lam0, transitions=inject_transitions)
    )
    return ChannelGraphModel(
        stages,
        message_flits=workload.message_flits,
        entry="inject",
        average_distance=hypercube_average_distance(d),
        variant=variant,
    )
