"""Experiment FAULT — degradation curves for networks with failed links.

How gracefully does each topology family degrade as links die?  For every
family the demand point is anchored at half the *nominal* (fault-free)
model saturation, then ``k`` uniformly random level>=1 links are killed
(seeded, so the curve is reproducible) and the same declarative
:class:`~repro.runs.Scenario` — now carrying ``faults=`` — is re-answered
by the batch analytical backend: degraded saturation, the latency of the
surviving traffic at the unchanged demand, and the fraction of nominal
capacity retained.

A draw that disconnects the network is *reported*, not skipped: wormhole
minimal routing cannot route around a cut, so a ``partitioned`` row is an
honest answer about that family's redundancy (a fat tree with one parent
per switch partitions on the first up-link failure; the paper's 4-2 BFT
does not).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..errors import PartitionedNetworkError
from ..runs.runner import Runner
from ..util.tables import format_table
from .common import ExperimentMode, mode
from .validate import _family_scenarios

__all__ = ["FaultDegradationRow", "FaultDegradationResult", "run_fault_degradation"]

#: Demand operating point as a fraction of the *nominal* saturation load.
_DEMAND_FRACTION = 0.5


@dataclass(frozen=True)
class FaultDegradationRow:
    """One (family, failure count) point of the degradation curve."""

    topology: str
    num_processors: int
    failures: int
    dead_links: int
    status: str  # "ok" | "partitioned"
    saturation_flit_load: float
    latency: float
    retained: float  # degraded saturation / nominal saturation

    @property
    def partitioned(self) -> bool:
        return self.status == "partitioned"


@dataclass(frozen=True)
class FaultDegradationResult:
    message_flits: int
    fault_seed: int
    rows: tuple[FaultDegradationRow, ...]
    mode_label: str

    def render(self) -> str:
        def fmt(value: float) -> object:
            return "-" if math.isnan(value) else value

        return format_table(
            [
                "topology",
                "N",
                "k dead",
                "links out",
                "status",
                "sat load",
                "latency @ demand",
                "capacity retained",
            ],
            [
                (
                    r.topology,
                    r.num_processors,
                    r.failures,
                    r.dead_links,
                    r.status,
                    fmt(r.saturation_flit_load),
                    fmt(r.latency),
                    fmt(r.retained),
                )
                for r in self.rows
            ],
            title=(
                f"Degraded-mode curves, {self.message_flits}-flit messages "
                f"({self.mode_label} mode; demand fixed at "
                f"{_DEMAND_FRACTION:.0%} of each family's fault-free "
                f"saturation; failures drawn with seed {self.fault_seed})"
            ),
        )

    def to_json(self) -> dict:
        return {
            "message_flits": self.message_flits,
            "fault_seed": self.fault_seed,
            "mode": self.mode_label,
            "demand_fraction": _DEMAND_FRACTION,
            "rows": [
                {
                    "topology": r.topology,
                    "num_processors": r.num_processors,
                    "failures": r.failures,
                    "dead_links": r.dead_links,
                    "status": r.status,
                    "saturation_flit_load": r.saturation_flit_load,
                    "latency": r.latency,
                    "retained": r.retained,
                }
                for r in self.rows
            ],
        }


def run_fault_degradation(
    *,
    message_flits: int = 16,
    fault_seed: int = 7,
    registry=None,
    experiment_mode: ExperimentMode | None = None,
) -> FaultDegradationResult:
    """Degradation curve per family over ``k`` random link failures.

    ``registry`` (a :class:`~repro.runs.RunRegistry`) persists every
    non-partitioned degraded run so curves diff across PRs.
    """
    m = experiment_mode or mode()
    runner = Runner(registry=registry)
    failure_counts = (0, 1, 2, 4) if m.full else (0, 1, 2)
    rows: list[FaultDegradationRow] = []
    for base in _family_scenarios(m.full, message_flits):
        probe = runner.run(base.with_backend("batch"), save=False)
        nominal_sat = probe.metrics["saturation"]["flit_load"]
        demand = _DEMAND_FRACTION * nominal_sat
        for k in failure_counts:
            scenario = dataclasses.replace(
                base,
                flit_load=demand,
                label="fault-degradation",
                faults=(
                    None
                    if k == 0
                    else {"random_link_failures": k, "seed": fault_seed}
                ),
            )
            try:
                record = runner.run(scenario.with_backend("batch"))
            except PartitionedNetworkError:
                rows.append(
                    FaultDegradationRow(
                        topology=base.topology,
                        num_processors=base.num_processors,
                        failures=k,
                        dead_links=k,
                        status="partitioned",
                        saturation_flit_load=float("nan"),
                        latency=float("nan"),
                        retained=float("nan"),
                    )
                )
                continue
            fault_info = record.metrics.get("faults")
            dead = len(fault_info["dead_links"]) if fault_info else 0
            sat = record.metrics["saturation"]["flit_load"]
            rows.append(
                FaultDegradationRow(
                    topology=base.topology,
                    num_processors=base.num_processors,
                    failures=k,
                    dead_links=dead,
                    status="ok",
                    saturation_flit_load=sat,
                    latency=record.metrics["point"]["latency"],
                    retained=sat / nominal_sat,
                )
            )
    return FaultDegradationResult(
        message_flits=message_flits,
        fault_seed=fault_seed,
        rows=tuple(rows),
        mode_label=m.label,
    )
