"""The exploration driver: requirements in, sized designs out.

:func:`explore` is the subsystem's front door.  It expands a
:class:`~repro.design.space.DesignSpace` into candidates, evaluates each
through the batch engine (memoized, optionally fanned out across worker
processes), prices the hardware with a pluggable cost model, checks every
candidate against the :class:`Requirements`, and returns an
:class:`ExplorationResult` exposing

* the full evaluation table,
* the feasible set and the *cheapest feasible* design (Solnushkin's
  selection rule),
* the *largest feasible* configuration (the capacity-planning question:
  which machine still meets the SLO?), and
* the latency / cost / headroom Pareto frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..util.tables import format_table
from .cost import CostModel, LinearCostModel
from .evaluate import CandidateMetrics, Evaluation, _metrics_key, metrics_for
from .families import design_family
from .pareto import Objective, pareto_frontier
from .space import DesignSpace, SkippedCandidate

__all__ = ["Requirements", "ExplorationResult", "explore"]


@dataclass(frozen=True)
class Requirements:
    """What a feasible design must deliver.

    Attributes
    ----------
    demand_flit_load:
        The operating point, in flits/cycle/PE (Figure-3 units); latency
        and headroom are judged here.
    latency_slo:
        Maximum acceptable mean latency (cycles) at the demand point.
    min_headroom:
        Minimum ratio of saturation load to demand load.  ``1.0`` merely
        requires a steady state at the demand; ``1.5`` keeps 50% margin
        before the knee.
    max_cost:
        Optional budget cap on the cost model's total.
    survives_faults:
        When positive, every feasible design must *also* meet the latency
        SLO and headroom floor with this many seeded random link failures
        injected (drawn among network links with
        ``numpy.random.default_rng(fault_seed)``; see
        :class:`~repro.faults.FaultSpec`).  A candidate the failures
        partition is infeasible outright.
    fault_seed:
        Seed of the random failure draw (same seed -> same dead links on
        every candidate of the same family/size, so comparisons are fair).
    """

    demand_flit_load: float
    latency_slo: float
    min_headroom: float = 1.0
    max_cost: float | None = None
    survives_faults: int = 0
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if not (self.demand_flit_load > 0.0) or not math.isfinite(self.demand_flit_load):
            raise ConfigurationError("demand_flit_load must be positive and finite")
        if not (self.latency_slo > 0.0):
            raise ConfigurationError("latency_slo must be positive")
        if not (self.min_headroom >= 0.0):
            raise ConfigurationError("min_headroom must be non-negative")
        if self.max_cost is not None and not (self.max_cost > 0.0):
            raise ConfigurationError("max_cost must be positive when given")
        if (
            isinstance(self.survives_faults, bool)
            or not isinstance(self.survives_faults, int)
            or self.survives_faults < 0
        ):
            raise ConfigurationError(
                "survives_faults must be a non-negative integer"
            )
        if isinstance(self.fault_seed, bool) or not isinstance(self.fault_seed, int):
            raise ConfigurationError("fault_seed must be an integer")

    def fault_spec(self):
        """The random-failure :class:`~repro.faults.FaultSpec`, or None."""
        if self.survives_faults <= 0:
            return None
        from ..faults import FaultSpec

        return FaultSpec(
            random_link_failures=self.survives_faults, seed=self.fault_seed
        )

    def fault_violations(self, degraded) -> tuple[str, ...]:
        """Requirement clauses the degraded metrics break (empty = survives).

        ``degraded`` is the candidate's degraded-mode answer from
        :func:`~repro.design.evaluate.metrics_for`: its
        :class:`~repro.design.evaluate.CandidateMetrics`, None when the
        seeded failures partitioned its network, or the reason they could
        not be drawn on it.  Empty whenever no fault survival is asked.
        """
        if self.survives_faults <= 0:
            return ()
        k, s = self.survives_faults, self.fault_seed
        if degraded is None:
            return (f"partitioned under {k} link failure(s) (seed {s})",)
        if isinstance(degraded, str):
            return (f"fault injection impossible: {degraded}",)
        out: list[str] = []
        if not (math.isfinite(degraded.latency) and degraded.latency <= self.latency_slo):
            out.append(
                f"degraded latency {degraded.latency:.4g} > SLO "
                f"{self.latency_slo:.4g} under {k} link failure(s)"
            )
        headroom = degraded.headroom(self.demand_flit_load)
        if not (headroom >= self.min_headroom):
            out.append(
                f"degraded headroom {headroom:.3g}x < {self.min_headroom:.3g}x "
                f"under {k} link failure(s)"
            )
        return tuple(out)

    def violations(
        self, latency: float, headroom: float, total_cost: float
    ) -> tuple[str, ...]:
        """The requirement clauses this operating point breaks (empty = feasible)."""
        out: list[str] = []
        if not (math.isfinite(latency) and latency <= self.latency_slo):
            out.append(f"latency {latency:.4g} > SLO {self.latency_slo:.4g}")
        if not (headroom >= self.min_headroom):
            out.append(f"headroom {headroom:.3g}x < {self.min_headroom:.3g}x")
        if self.max_cost is not None and total_cost > self.max_cost:
            out.append(f"cost {total_cost:.4g} > budget {self.max_cost:.4g}")
        return tuple(out)


@dataclass(frozen=True)
class ExplorationResult:
    """Everything :func:`explore` learned about one design space."""

    requirements: Requirements
    evaluations: tuple[Evaluation, ...]
    skipped: tuple[SkippedCandidate, ...]

    @property
    def feasible(self) -> tuple[Evaluation, ...]:
        """Evaluations meeting every requirement clause."""
        return tuple(e for e in self.evaluations if e.feasible)

    @property
    def cheapest_feasible(self) -> Evaluation | None:
        """The feasible design with the lowest total cost (Solnushkin's rule)."""
        feasible = self.feasible
        if not feasible:
            return None
        return min(feasible, key=lambda e: (e.cost.total, e.latency))

    def largest_feasible(self) -> Evaluation | None:
        """The feasible design maximizing ``(num_processors, message_flits)``.

        Matches the selection rule of the original capacity-planning sweep
        (``max(feasible)`` over ``(N, flits)`` pairs), so the explorer and
        the legacy scalar loop agree by construction on the same inputs.
        """
        feasible = self.feasible
        if not feasible:
            return None
        return max(
            feasible,
            key=lambda e: (e.candidate.num_processors, e.candidate.message_flits),
        )

    def pareto(self) -> tuple[Evaluation, ...]:
        """Latency / cost / headroom frontier over all evaluated designs.

        Minimizes latency and total cost, maximizes headroom; saturated
        designs (non-finite latency) never appear.  Infeasible designs may:
        the frontier describes the trade-off surface, not the requirement.
        """
        return pareto_frontier(
            self.evaluations,
            (
                Objective(lambda e: e.latency, "min"),
                Objective(lambda e: e.cost.total, "min"),
                Objective(lambda e: e.headroom, "max"),
            ),
        )

    # --- rendering ---------------------------------------------------------------

    def as_rows(self, frontier: tuple[Evaluation, ...] | None = None) -> list[tuple]:
        """Table rows (one per evaluation) for :func:`format_table`.

        ``frontier`` lets callers reuse an already-computed Pareto set
        (the dominance scan is quadratic in the evaluation count).
        """
        pareto = set(id(e) for e in (self.pareto() if frontier is None else frontier))
        rows = []
        for e in self.evaluations:
            rows.append(
                (
                    e.candidate.family,
                    ", ".join(f"{k}={v}" for k, v in e.candidate.params),
                    e.candidate.num_processors,
                    e.candidate.message_flits,
                    e.candidate.pattern,
                    e.candidate.buffer_depth,
                    e.latency,
                    e.saturation_flit_load,
                    e.headroom,
                    e.cost.total,
                    "yes" if e.feasible else "no",
                    "*" if id(e) in pareto else "",
                )
            )
        return rows

    _HEADERS = (
        "family",
        "parameters",
        "N",
        "flits",
        "pattern",
        "buf",
        "latency @ demand",
        "sat load",
        "headroom (x)",
        "cost",
        "feasible",
        "pareto",
    )

    def render(self) -> str:
        """Human-readable report: table, verdicts, skips."""
        req = self.requirements
        frontier = self.pareto()
        lines = [
            format_table(
                list(self._HEADERS),
                self.as_rows(frontier),
                title=(
                    f"Design-space exploration: {len(self.evaluations)} candidates, "
                    f"SLO <= {req.latency_slo:.4g} cycles @ "
                    f"{req.demand_flit_load:.4g} fl/cyc/PE, "
                    f"headroom >= {req.min_headroom:.3g}x"
                    + (f", cost <= {req.max_cost:.4g}" if req.max_cost is not None else "")
                    + (
                        f", survives {req.survives_faults} link failure(s) "
                        f"(seed {req.fault_seed})"
                        if req.survives_faults > 0
                        else ""
                    )
                ),
            )
        ]
        cheapest = self.cheapest_feasible
        largest = self.largest_feasible()
        lines.append("")
        lines.append(f"feasible designs: {len(self.feasible)} / {len(self.evaluations)}")
        if cheapest is not None:
            lines.append(
                f"cheapest feasible: {cheapest.candidate.label()} "
                f"(cost {cheapest.cost.total:.4g}, latency {cheapest.latency:.4g})"
            )
        if largest is not None:
            lines.append(
                f"largest feasible:  {largest.candidate.label()} "
                f"(latency {largest.latency:.4g}, headroom {largest.headroom:.3g}x)"
            )
        if cheapest is None:
            lines.append("no design meets the requirements")
        if frontier:
            lines.append(f"Pareto frontier ({len(frontier)} designs):")
            for e in frontier:
                lines.append(
                    f"  {e.candidate.label()}: latency {e.latency:.4g}, "
                    f"cost {e.cost.total:.4g}, headroom {e.headroom:.3g}x"
                )
        if self.skipped:
            lines.append(f"skipped combinations ({len(self.skipped)}):")
            for s in self.skipped:
                inner = ", ".join(f"{k}={v}" for k, v in s.params)
                lines.append(
                    f"  {s.family}({inner}) f={s.message_flits} {s.pattern}: {s.reason}"
                )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable report (JSON-safe: no non-finite floats)."""
        req = self.requirements
        cheapest = self.cheapest_feasible
        largest = self.largest_feasible()
        return {
            "requirements": {
                "demand_flit_load": req.demand_flit_load,
                "latency_slo": req.latency_slo,
                "min_headroom": req.min_headroom,
                "max_cost": req.max_cost,
                "survives_faults": req.survives_faults,
                "fault_seed": req.fault_seed,
            },
            "evaluations": [e.as_json() for e in self.evaluations],
            "feasible_count": len(self.feasible),
            "cheapest_feasible": cheapest.as_json() if cheapest else None,
            "largest_feasible": largest.as_json() if largest else None,
            "pareto": [e.as_json() for e in self.pareto()],
            "skipped": [
                {
                    "family": s.family,
                    "params": dict(s.params),
                    "message_flits": s.message_flits,
                    "pattern": s.pattern,
                    "reason": s.reason,
                }
                for s in self.skipped
            ],
        }

    def to_run_result(self, *, label: str = ""):
        """This exploration as a ``kind="exploration"`` run-registry record.

        The record's ``metrics["exploration"]`` block carries the verdicts
        that should diff across PRs — feasible set, cheapest/largest
        selections and the Pareto frontier — but not the full evaluation
        table (regenerate it from the requirements when needed), so
        frontier drift shows up in ``repro runs diff`` without drowning it
        in per-candidate noise.
        """
        from ..runs import RunResult
        from ..runs.runner import provenance_stamp

        report = self.to_json()
        cheapest = report["cheapest_feasible"]
        largest = report["largest_feasible"]
        metrics = {
            "exploration": {
                "requirements": report["requirements"],
                "candidates": len(self.evaluations),
                "feasible_count": report["feasible_count"],
                "skipped_count": len(self.skipped),
                "cheapest_feasible": cheapest,
                "largest_feasible": largest,
                "pareto": report["pareto"],
                "feasible": [e.as_json() for e in self.feasible],
            }
        }
        return RunResult(
            metrics=metrics,
            scenario=None,
            kind="exploration",
            label=label,
            provenance=provenance_stamp(backend="design"),
        )


def explore(
    space: DesignSpace,
    requirements: Requirements,
    *,
    cost_model: CostModel | None = None,
    processes: int = 1,
    chunksize: int = 1,
) -> ExplorationResult:
    """Search ``space`` for designs meeting ``requirements``.

    Expansion reports (never silently drops) pattern-incompatible
    combinations; evaluation is memoized per candidate and demand point and
    fans uncached candidates across ``processes`` workers, once nominally
    and, when the requirements ask for fault survival, once more under
    their seeded :class:`~repro.faults.FaultSpec`; every candidate is then
    priced with ``cost_model`` (default :class:`LinearCostModel`) and
    judged against the requirements.
    """
    cost_model = cost_model if cost_model is not None else LinearCostModel()
    expansion = space.expand()
    if not expansion.candidates:
        raise ConfigurationError(
            "design space expands to zero evaluable candidates"
            + (
                f" ({len(expansion.skipped)} combinations skipped: "
                f"{expansion.skipped[0].reason}, ...)"
                if expansion.skipped
                else ""
            )
        )
    demand = requirements.demand_flit_load
    nominal = metrics_for(
        expansion.candidates, demand, processes=processes, chunksize=chunksize
    )
    fault_spec = requirements.fault_spec()
    faulted = (
        {}
        if fault_spec is None
        else metrics_for(
            expansion.candidates,
            demand,
            faults=fault_spec,
            processes=processes,
            chunksize=chunksize,
        )
    )
    evaluations = []
    for cand in expansion.candidates:
        key = _metrics_key(cand, demand)
        m = nominal[key]
        assert isinstance(m, CandidateMetrics)  # nominal: never a verdict
        hardware = design_family(cand.family).hardware(cand.params_dict)
        cost = cost_model.cost(cand, hardware)
        headroom = m.headroom(demand)
        answer = faulted.get(key)
        violations = requirements.violations(
            m.latency, headroom, cost.total
        ) + requirements.fault_violations(answer)
        degraded = answer if isinstance(answer, CandidateMetrics) else None
        evaluations.append(
            Evaluation(
                candidate=cand,
                metrics=m,
                hardware=hardware,
                cost=cost,
                headroom=headroom,
                violations=violations,
                degraded=degraded,
            )
        )
    return ExplorationResult(
        requirements=requirements,
        evaluations=tuple(evaluations),
        skipped=expansion.skipped,
    )
