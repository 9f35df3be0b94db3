"""Model-level pre-solve analyzer: verify invariants before anything solves.

Where :mod:`repro.analysis.lint` checks the *code*, this module checks the
*model instance* a scenario is about to solve.  :func:`analyze_scenario`
statically verifies, without running any fixed point:

REP101  per-switch / per-channel flow conservation of the propagated
        channel rates — at every link, injected mass plus upstream
        edge-flow equals the link's rate within ``1e-9``; non-ejection
        links forward everything they carry; globally, injected load
        equals ejected load.  Holds for all four families x all patterns,
        including under fault masks.
REP102  the stage-graph structure matches the chosen solver: the
        feed-forward families (bft, generalized-fattree, hypercube) must
        produce acyclic graphs; the torus (kary-ncube) may declare its
        cycle-reachable set and is solved by the cyclic batch fixed point.
        A partitioned faulted network also reports here.
REP103  entry-point weights form a probability distribution (sum to 1
        after normalization; every active source has an entry channel).
REP104  stability precondition: no stage can be saturated at the
        requested load even under the minimal service time (``rho < 1``
        necessary condition; the solver's Eq. 26 test is tighter).

``repro check`` renders the report; ``repro run --check`` refuses to solve
(exit 2) when any error-severity finding is present and otherwise records
the report in the run's provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ConfigurationError, PartitionedNetworkError
from ..faults.spec import link_ref
from ..topology.base import DOWN
from .findings import ERROR, Finding, render_findings

__all__ = [
    "EXPECTED_ACYCLIC",
    "AnalysisReport",
    "MODEL_CHECKS",
    "analyze_scenario",
    "check_flow_conservation",
    "scenario_flows",
]

#: Rule ids the analyzer evaluates, in reporting order.
MODEL_CHECKS = ("REP101", "REP102", "REP103", "REP104")

#: Which families must yield feed-forward (acyclic) stage graphs.  The
#: torus rings of the k-ary n-cube legitimately close cycles in the
#: channel graph; its batch solver iterates a fixed point instead.
EXPECTED_ACYCLIC = {
    "bft": True,
    "generalized-fattree": True,
    "hypercube": True,
    "kary-ncube": False,
}

_TOL = 1e-9


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of the pre-solve checks for one scenario/model."""

    subject: str
    checks: tuple[str, ...]
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is present."""
        return not any(f.severity == ERROR for f in self.findings)

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    def render(self) -> str:
        head = f"pre-solve checks for {self.subject}: " + (
            "ok" if self.ok else f"{len(self.errors())} error(s)"
        )
        lines = [head, f"checks: {', '.join(self.checks)}"]
        if self.findings:
            lines.append(render_findings(list(self.findings)))
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": list(self.checks),
            "findings": [f.to_json() for f in self.findings],
        }


def _is_ejection(topology, link: int) -> bool:
    cls = topology.link_class[link]
    return cls.level == 0 and cls.direction == DOWN


def check_flow_conservation(flows, *, tol: float = _TOL) -> list[Finding]:
    """REP101: the propagated channel rates must conserve flow everywhere.

    Checks, each within ``tol``:

    * per link: injected-at-link + sum of upstream edge-flow == link rate
      (a violated link pinpoints the corrupted channel);
    * per non-ejection link: everything carried is forwarded somewhere;
    * per ejection link: nothing is forwarded (worms terminate at PEs);
    * per switch: total inflow equals total outflow;
    * globally: injected load equals ejected load.
    """
    topology = flows.topology
    num_links = topology.num_links
    rate = np.asarray(flows.link_rate, dtype=float)
    findings: list[Finding] = []

    injected = np.zeros(num_links)
    for s, e in flows.entry_link.items():
        injected[e] += float(flows.source_weight[s])
    inflow = injected.copy()
    outflow = np.zeros(num_links)
    for e, targets in enumerate(flows.edge_flow):
        for target, mass in targets.items():
            inflow[target] += mass
            outflow[e] += mass

    def _ref(e: int) -> str:
        return link_ref(topology, e)

    for e in np.nonzero(np.abs(inflow - rate) > tol)[0]:
        findings.append(
            Finding(
                rule="REP101",
                severity=ERROR,
                message=(
                    f"channel {_ref(int(e))} (link {int(e)}) carries rate "
                    f"{rate[e]:.12g} but receives {inflow[e]:.12g} "
                    f"(injected {injected[e]:.12g} + routed "
                    f"{inflow[e] - injected[e]:.12g})"
                ),
                channel=_ref(int(e)),
                hint="flow propagation must conserve mass into every channel",
            )
        )
    for e in range(num_links):
        if _is_ejection(topology, e):
            if outflow[e] > tol:
                findings.append(
                    Finding(
                        rule="REP101",
                        severity=ERROR,
                        message=(
                            f"ejection channel {_ref(e)} forwards rate "
                            f"{outflow[e]:.12g}; worms must terminate at the PE"
                        ),
                        channel=_ref(e),
                        hint="ejection links are flow sinks",
                    )
                )
        elif abs(rate[e] - outflow[e]) > tol:
            findings.append(
                Finding(
                    rule="REP101",
                    severity=ERROR,
                    message=(
                        f"channel {_ref(e)} carries rate {rate[e]:.12g} but "
                        f"forwards only {outflow[e]:.12g}"
                    ),
                    channel=_ref(e),
                    hint="non-ejection channels must forward everything they carry",
                )
            )

    # Per-switch balance (node ids >= num_processors are switches).
    n_pe = topology.num_processors
    node_in: dict[int, float] = {}
    node_out: dict[int, float] = {}
    for e in range(num_links):
        node_out[int(topology.link_src[e])] = (
            node_out.get(int(topology.link_src[e]), 0.0) + rate[e]
        )
        node_in[int(topology.link_dst[e])] = (
            node_in.get(int(topology.link_dst[e]), 0.0) + rate[e]
        )
    for v in sorted(set(node_in) | set(node_out)):
        if v < n_pe:
            continue
        delta = node_in.get(v, 0.0) - node_out.get(v, 0.0)
        if abs(delta) > tol:
            findings.append(
                Finding(
                    rule="REP101",
                    severity=ERROR,
                    message=(
                        f"switch {v} violates flow conservation: inflow "
                        f"{node_in.get(v, 0.0):.12g} != outflow "
                        f"{node_out.get(v, 0.0):.12g}"
                    ),
                    channel=f"switch:{v}",
                    hint="per-switch inflow must equal outflow",
                )
            )

    ejected = float(sum(rate[e] for e in range(num_links) if _is_ejection(topology, e)))
    total = float(flows.total_rate)
    if abs(ejected - total) > tol * max(1.0, total):
        findings.append(
            Finding(
                rule="REP101",
                severity=ERROR,
                message=(
                    f"global imbalance: injected load {total:.12g} != "
                    f"ejected load {ejected:.12g}"
                ),
                channel="global",
                hint="every injected worm must reach exactly one ejection channel",
            )
        )
    return findings


def _entry_findings(flows) -> list[Finding]:
    """REP103 at the flow level: active sources form a sane entry set."""
    findings: list[Finding] = []
    weights = np.asarray(flows.source_weight, dtype=float)
    active = set(np.nonzero(weights > 0.0)[0].tolist())
    recorded = set(int(s) for s in flows.entry_link)
    missing = sorted(active - recorded)
    if missing:
        findings.append(
            Finding(
                rule="REP103",
                severity=ERROR,
                message=(
                    f"{len(missing)} active source(s) have no entry channel "
                    f"(first: pe {missing[0]})"
                ),
                channel=f"pe:{missing[0]}",
                hint="every active source must inject on exactly one channel",
            )
        )
    for s in sorted(recorded):
        d = float(flows.source_distance[s])
        if not (np.isfinite(d) and d > 0.0):
            findings.append(
                Finding(
                    rule="REP103",
                    severity=ERROR,
                    message=f"source pe {s} has invalid mean distance {d!r}",
                    channel=f"pe:{s}",
                    hint="entry distances weight Eq. 2 and must be finite and positive",
                )
            )
    if not recorded:
        findings.append(
            Finding(
                rule="REP103",
                severity=ERROR,
                message="traffic spec generates no traffic (all sources silent)",
                channel="entries",
                hint="at least one source must have positive activity",
            )
        )
    return findings


def scenario_flows(scenario):
    """Trace the channel flows a scenario's analytical backends would use.

    :meth:`~repro.design.families.DesignFamily.flows` of the scenario's
    family: uncached, so callers may corrupt the result freely in tests.
    """
    from ..design.families import design_family

    return design_family(scenario.topology).flows(
        scenario.family_params(), scenario.spec(), scenario.fault_spec()
    )


def analyze_scenario(scenario) -> AnalysisReport:
    """Run every model-level pre-solve check for one scenario."""
    from ..traffic.analytic import stage_graph_from_flows

    subject = scenario.describe()
    findings: list[Finding] = []
    try:
        flows = scenario_flows(scenario)
    except PartitionedNetworkError as exc:
        findings.append(
            Finding(
                rule="REP102",
                severity=ERROR,
                message=f"network is partitioned under the fault set: {exc}",
                channel="graph",
                hint="remove faults until every surviving PE pair is connected",
            )
        )
        return AnalysisReport(subject, MODEL_CHECKS, tuple(findings))

    findings.extend(check_flow_conservation(flows))
    findings.extend(_entry_findings(flows))

    if not any(f.rule == "REP103" for f in findings):
        try:
            graph = stage_graph_from_flows(flows, scenario.workload())
        except ConfigurationError as exc:
            findings.append(
                Finding(
                    rule="REP102",
                    severity=ERROR,
                    message=f"stage graph construction failed: {exc}",
                    channel="graph",
                    hint="the traced flows must form a solvable stage graph",
                )
            )
        else:
            findings.extend(
                graph.check(
                    expect_acyclic=EXPECTED_ACYCLIC.get(scenario.topology),
                    load_scale=1.0,
                )
            )
    return AnalysisReport(subject, MODEL_CHECKS, tuple(findings))
