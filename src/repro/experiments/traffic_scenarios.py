"""Experiment TRAFFIC — pattern-aware model vs. simulation cross-check.

The paper validates its model under uniform traffic only (assumption 1).
This experiment extends the validation to non-uniform destination patterns:
for each registered scenario it

1. builds the pattern-aware per-channel solver — the stage graph of the
   traced flows (:func:`~repro.traffic.analytic.stage_graph_from_flows`),
   for the uniform pattern too, so every row checks the per-channel
   construction itself,
2. saturation-searches it (batched Eq. 26) for the pattern's own
   saturation load,
3. probes an operating point at half that load, and
4. drives the event-driven simulator with the *same*
   :class:`~repro.traffic.spec.TrafficSpec` and tabulates model vs.
   measured latency.

The headline claim (enforced in the test suite): analytical and simulated
mean latency agree within 10% at half saturation for hotspot (f=0.05),
transpose and bit-reversal traffic on a 64-PE butterfly fat-tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import SimConfig, Workload
from ..core.throughput import saturation_injection_rate
from ..design.evaluate import point_latency
from ..simulation.traffic import PoissonTraffic
from ..simulation.wormhole_sim import EventDrivenWormholeSimulator
from ..topology.butterfly_fattree import ButterflyFatTree
from ..traffic.analytic import stage_graph_from_flows
from ..traffic.flows import bft_channel_flows
from ..traffic.spec import (
    BitReversalSpec,
    HotspotSpec,
    TornadoSpec,
    TrafficSpec,
    TransposeSpec,
    UniformSpec,
)
from ..util.tables import format_table
from .common import ExperimentMode, mode, relative_error

__all__ = [
    "TrafficScenarioRow",
    "TrafficScenariosResult",
    "default_scenarios",
    "run_traffic_scenarios",
]


def default_scenarios() -> tuple[TrafficSpec, ...]:
    """The scenario set the experiment (and its test) sweeps."""
    return (
        UniformSpec(),
        HotspotSpec(fraction=0.05, target=0),
        TransposeSpec(),
        BitReversalSpec(),
        TornadoSpec(),
    )


@dataclass(frozen=True)
class TrafficScenarioRow:
    pattern: str
    saturation_load: float
    probe_load: float
    model_latency: float
    sim_latency: float
    sim_stable: bool

    @property
    def rel_err(self) -> float:
        return relative_error(self.model_latency, self.sim_latency)


@dataclass(frozen=True)
class TrafficScenariosResult:
    num_processors: int
    message_flits: int
    rows: tuple[TrafficScenarioRow, ...]
    mode_label: str

    def render(self) -> str:
        return format_table(
            [
                "pattern",
                "sat load (fl/cyc/PE)",
                "probe load",
                "model latency",
                "sim latency",
                "rel err",
                "steady state",
            ],
            [
                (
                    r.pattern,
                    r.saturation_load,
                    r.probe_load,
                    r.model_latency,
                    r.sim_latency,
                    r.rel_err,
                    "yes" if r.sim_stable else "no",
                )
                for r in self.rows
            ],
            title=(
                f"Traffic scenarios, N={self.num_processors}, "
                f"{self.message_flits}-flit ({self.mode_label} mode); "
                "probe at 0.5x pattern saturation"
            ),
        )


def run_traffic_scenarios(
    *,
    num_processors: int = 64,
    message_flits: int = 16,
    scenarios: tuple[TrafficSpec, ...] | None = None,
    probe_fraction: float = 0.5,
    seed: int = 23,
    experiment_mode: ExperimentMode | None = None,
) -> TrafficScenariosResult:
    """Tabulate pattern-aware model predictions against simulation."""
    m = experiment_mode or mode()
    scenarios = scenarios if scenarios is not None else default_scenarios()
    topo = ButterflyFatTree(num_processors)
    reference = Workload(message_flits, 1.0 / (100.0 * message_flits))
    rows = []
    for spec in scenarios:
        tm = stage_graph_from_flows(bft_channel_flows(topo, spec), reference)
        sat = saturation_injection_rate(tm, message_flits)
        wl = Workload(message_flits, probe_fraction * sat.injection_rate)
        predicted = point_latency(tm, wl)
        traffic = PoissonTraffic(num_processors, wl, seed=seed, spec=spec)
        cfg = SimConfig(
            warmup_cycles=m.warmup_cycles,
            measure_cycles=m.measure_cycles,
            seed=seed,
        )
        result = EventDrivenWormholeSimulator(
            topo, wl, cfg, traffic=traffic, keep_samples=False
        ).run()
        rows.append(
            TrafficScenarioRow(
                pattern=spec.name,
                saturation_load=sat.flit_load,
                probe_load=wl.flit_load,
                model_latency=predicted,
                sim_latency=result.latency_mean if result.stable else math.inf,
                sim_stable=result.stable,
            )
        )
    return TrafficScenariosResult(
        num_processors=num_processors,
        message_flits=message_flits,
        rows=tuple(rows),
        mode_label=m.label,
    )
