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

On an acyclic stage graph (fat-trees, e-cube hypercubes) one pass from the
ejection channels back to the injection channels is exact; on cyclic graphs
the same recursion is iterated to a fixed point
(:func:`repro.util.fixedpoint.fixed_point_batch`).

:func:`bft_stage_graph` re-derives the paper's butterfly fat-tree equations
from this general machinery (as the ``(4, 2)`` case of
:func:`generalized_fattree_stage_graph`); the test suite verifies it matches
the closed-form :class:`~repro.core.bft_model.ButterflyFatTreeModel` to a
relative 1e-12 — an independent check of the closed-form sweep.
:func:`hypercube_stage_graph` applies the same machinery to a binary
hypercube — the "other networks" the paper's abstract refers to.

The recursion is batched and compiled.  Channel rates are linear in the
injection rate, so one stage graph describes a whole load sweep, and
``solve_batch`` / ``latency_batch`` evaluate every scale factor at once.
On first use a graph is compiled into arrays (it is immutable, so this
happens once per instance): per-stage rates and server counts, a table of
the nonzero transitions, and the stages grouped into topological levels — a
stage's level is its longest path to an ejection channel, so a level only
depends on the levels below it.  A solve then evaluates the Eq. 10 blocking
probabilities of every transition in one array operation (they depend only
on rates), and resolves each level with one gather of the downstream
service and wait, the Eq. 9 charged waits, and one M/G/m evaluation per
distinct server count.  Each stage's Eq. 11 terms are summed in the stage's
declared transition order, slot by slot, which keeps every answer
bit-identical to summing them one transition at a time.  A cyclic graph is
a single level of all stages (in sorted-name order) that one vector
fixed-point step updates; saturated points freeze at ``inf`` while the rest
converge.  The scalar ``solve()`` is a cached one-point batch — ``latency()``
and ``injection_service()`` share a single resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby

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


@dataclass(frozen=True)
class _Level:
    """One topological level of a compiled stage graph.

    ``rows`` and ``transitions`` slice the compiled stage and transition
    tables.  ``slots[j, i]`` is the level-local index of stage ``i``'s
    ``j``-th transition; stages with fewer transitions are padded with
    ``len(transitions)``, the index of an all-zero term.  ``base`` is each
    stage's service before its Eq. 11 terms (the message length on ejection
    stages, 0 elsewhere), and ``server_groups`` pairs every distinct server
    count of the level with its rows.
    """

    rows: slice
    transitions: slice
    slots: np.ndarray
    base: np.ndarray
    server_groups: tuple[tuple[int, slice | np.ndarray], ...]


@dataclass(frozen=True)
class _CompiledGraph:
    """Array form of a stage graph (see :meth:`ChannelGraphModel._compiled`).

    Stages are rows, ordered level by level (sorted by name for a cyclic
    graph); transitions are the nonzero-probability edges, grouped by source
    row in declared order.  ``output`` lists ``(name, row)`` in the key
    order of :meth:`ChannelGraphModel.solve_batch`'s mapping.
    """

    names: tuple[str, ...]
    rate_per_server: np.ndarray
    servers: np.ndarray
    source: np.ndarray
    target: np.ndarray
    target_servers: np.ndarray
    probability: np.ndarray
    queue_probability: np.ndarray
    levels: tuple[_Level, ...]
    output: tuple[tuple[str, int], ...]


def _server_groups(
    rows: np.ndarray, servers: np.ndarray
) -> tuple[tuple[int, slice | np.ndarray], ...]:
    """``(server count, rows)`` per distinct count among ``rows``; the rows
    are a slice when they are contiguous."""
    groups = []
    for m in np.unique(servers[rows]):
        members = rows[servers[rows] == m]
        if members[-1] - members[0] + 1 == members.size:
            groups.append((int(m), slice(members[0], members[-1] + 1)))
        else:
            groups.append((int(m), members))
    return tuple(groups)


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

    @cached_property
    def _compiled(self) -> _CompiledGraph:
        """The graph as arrays, built on first solve (the graph is immutable)."""
        if self._order is not None:
            depth: dict[str, int] = {}
            for name in self._order:  # every target precedes its sources
                depth[name] = 1 + max(
                    (depth[t.target] for t in self.stages[name].transitions),
                    default=-1,
                )
            names = sorted(
                self._order, key=lambda n: (depth[n], self.stages[n].servers)
            )
            level_of = [depth[n] for n in names]
        else:
            names = sorted(self.stages)
            level_of = [0] * len(names)
        row = {name: i for i, name in enumerate(names)}
        stages = [self.stages[name] for name in names]
        live = [
            [t for t in stage.transitions if t.probability != 0.0]
            for stage in stages
        ]
        servers = np.array([stage.servers for stage in stages], dtype=np.intp)
        target = np.array(
            [row[t.target] for edges in live for t in edges], dtype=np.intp
        )
        levels = []
        first_transition = 0
        for _, members in groupby(range(len(names)), key=level_of.__getitem__):
            rows = np.array(list(members), dtype=np.intp)
            degree = [len(live[i]) for i in rows]
            slots = np.full((max(degree), rows.size), sum(degree), dtype=np.intp)
            for i, (start, d) in enumerate(zip(accumulate(degree, initial=0), degree)):
                slots[:d, i] = np.arange(start, start + d)
            levels.append(
                _Level(
                    rows=slice(rows[0], rows[-1] + 1),
                    transitions=slice(
                        first_transition, first_transition + sum(degree)
                    ),
                    slots=slots,
                    base=np.array(
                        [
                            float(self.message_flits) if stages[i].is_terminal else 0.0
                            for i in rows
                        ]
                    )[:, None],
                    server_groups=_server_groups(rows, servers),
                )
            )
            first_transition += sum(degree)
        return _CompiledGraph(
            names=tuple(names),
            rate_per_server=np.array([stage.rate_per_server for stage in stages]),
            servers=servers,
            source=np.array(
                [i for i, edges in enumerate(live) for _ in edges], dtype=np.intp
            ),
            target=target,
            target_servers=servers[target][:, None],
            probability=np.array(
                [t.probability for edges in live for t in edges]
            ).reshape(-1, 1),
            queue_probability=np.array(
                [t.effective_queue_probability for edges in live for t in edges]
            ).reshape(-1, 1),
            levels=tuple(levels),
            output=tuple(
                (name, row[name])
                for name in (names if self._order is None else self._order)
            ),
        )

    def _level_service(
        self,
        level: _Level,
        service: np.ndarray,
        wait: np.ndarray,
        p_block: np.ndarray,
    ) -> np.ndarray:
        """Eq. 11 service-time mixture of one level's stages, over the load axis.

        The terms are added slot by slot from 0, which is each stage's
        declared transition order; padded slots add an exact zero.
        """
        graph = self._compiled
        edges = level.transitions
        targets = graph.target[edges]
        terms = np.zeros((edges.stop - edges.start + 1, service.shape[1]))
        terms[:-1] = graph.probability[edges] * (
            service[targets] + charged_wait(p_block[edges], wait[targets])
        )
        total = level.base
        for slot in level.slots:
            total = total + terms[slot]
        return total

    def _level_wait(
        self,
        level: _Level,
        service: np.ndarray,
        total_rate: np.ndarray,
        wait: np.ndarray,
    ) -> None:
        """Per-point M/G/m waits of one level's stages into ``wait`` (``inf``
        where diverged), one evaluation per distinct server count."""
        for servers, rows in level.server_groups:
            x = service[rows]
            scv = scv_for_mode_batch(self.variant.scv_mode, x, self.message_flits)
            wait[rows] = mgm_waiting_time_batch(total_rate[rows], x, servers, scv)

    def solve_batch(self, rate_scales) -> dict[str, StageBatchSolution]:
        """Resolve every stage over a vector of traffic scale factors.

        Channel rates are linear in the injection rate, so one stage graph
        built at a reference workload describes a whole load sweep: entry
        ``k`` of the result scales every stage's rate by ``rate_scales[k]``.
        The Eq. 10 blocking probabilities of all transitions are evaluated
        once per call.  An acyclic graph is then resolved level by level
        from the ejection channels up, each level in one array pass with
        its Eq. 11 sums in declared transition order; a cyclic graph
        iterates one all-stage step with
        :func:`~repro.util.fixedpoint.fixed_point_batch`, freezing saturated
        points at ``inf`` while the rest converge.  The mapping lists the
        stages terminals-first on acyclic graphs and by name on cyclic ones.
        """
        scales = as_injection_rates(rate_scales)
        if METRICS.enabled:
            METRICS.add("solve.batch")
            METRICS.add("solve.points", float(scales.size))
        graph = self._compiled
        rate = graph.rate_per_server[:, None] * scales
        total_rate = graph.servers[:, None] * rate
        with trace_span(
            "solve/stage_graph", stages=len(self.stages), points=int(scales.size)
        ):
            p_block = blocking_probability_batch(
                graph.target_servers,
                rate[graph.source],
                total_rate[graph.target],
                graph.queue_probability,
                enabled=self.variant.blocking_correction,
            )
            if self._order is not None:
                service = np.empty_like(rate)
                wait = np.empty_like(rate)
                for level in graph.levels:
                    service[level.rows] = self._level_service(
                        level, service, wait, p_block
                    )
                    self._level_wait(level, service, total_rate, wait)
            else:
                service, wait = self._solve_cyclic_batch(total_rate, p_block)
        if METRICS.enabled:
            # Same rule as the closed-form engines: a point is saturated
            # when any stage diverged.
            finite = np.all(np.isfinite(service) & np.isfinite(wait), axis=0)
            METRICS.add(
                "solve.saturated_points",
                float(finite.size - np.count_nonzero(finite)),
            )
        return {
            name: StageBatchSolution(service[row], wait[row])
            for name, row in graph.output
        }

    def _solve_cyclic_batch(
        self, total_rate: np.ndarray, p_block: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        graph = self._compiled
        (level,) = graph.levels

        def step(x: np.ndarray) -> np.ndarray:
            wait = np.empty_like(x)
            self._level_wait(level, x, total_rate, wait)
            return self._level_service(level, x, wait, p_block)

        n_points = total_rate.shape[1]
        x0 = np.full((len(graph.names), n_points), float(self.message_flits))
        # Near saturation the iteration's contraction rate approaches 1
        # (critical slowing down), so a strict 1e-12 tolerance can exhaust
        # any budget while the answer is already correct to far better than
        # a millicycle — e.g. asymmetric degraded-fabric traffic on a torus.
        # An exhausted budget is therefore accepted when the residual is
        # below this floor, and diagnosed as a ConvergenceError otherwise.
        residual_floor = 1e-6
        with trace_span("solve/fixed_point", points=n_points):
            result = fixed_point_batch(
                step,
                x0,
                tol=1e-12,
                max_iter=20_000,
                damping=0.5,
                allow_divergence=True,
            )
        if not result.converged:
            METRICS.add("fixed_point.exhausted")
            if result.residual > residual_floor:
                worst = result.worst_component
                channel = graph.names[worst] if worst is not None else None
                raise ConvergenceError(
                    "cyclic channel-graph solve did not converge"
                    f"{f' (worst channel {channel!r})' if channel else ''}: "
                    f"batched fixed point not reached after {result.iterations} "
                    f"iterations (residual {result.residual:.3e})",
                    iterations=result.iterations,
                    residual=result.residual,
                    worst_component=worst,
                    worst_channel=channel,
                )
            METRICS.add("fixed_point.exhausted_accepted")
        service = result.value
        wait = np.empty_like(service)
        self._level_wait(level, service, total_rate, wait)
        return service, wait

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
        service = np.array([s.service for s in solved.values()])
        wait = np.array([s.wait for s in solved.values()])
        return np.all(np.isfinite(service) & np.isfinite(wait), axis=0)

    def _latency_from(self, solved: dict[str, StageBatchSolution]) -> np.ndarray:
        """Traffic-weighted Eq. 25 over the entry points (``inf`` past saturation)."""
        finite = self._finite_mask(solved)
        weight = np.array([[e.weight] for e in self.entries])
        distance = np.array([[e.distance] for e in self.entries])
        with np.errstate(invalid="ignore"):
            terms = weight * (
                np.array([solved[e.name].wait for e in self.entries])
                + np.array([solved[e.name].service for e in self.entries])
                + distance
            )
        # Summed entry by entry from 0, in entry order.
        total = np.zeros_like(finite, dtype=float)
        for term in terms:
            total = total + term
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
        service = np.array([solved[e.name].service for e in self.entries])
        rate_per_server = np.array(
            [[self.stages[e.name].rate_per_server] for e in self.entries]
        )
        entry_rate = rate_per_server * rates / reference
        with np.errstate(invalid="ignore"):
            keeps_up = entry_rate * service < 1.0
        ok = self._finite_mask(solved)
        ok &= np.all(np.where(np.isfinite(service), keeps_up, False), axis=0)
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
