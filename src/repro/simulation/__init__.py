"""Wormhole-routing simulators.

* :mod:`repro.simulation.wormhole_sim` — event-driven worm-level simulator
  (primary validation engine; exact under the long-worm assumption);
* :mod:`repro.simulation.flit_sim` — independent cycle-driven flit-level
  simulator used for cross-validation;
* :mod:`repro.simulation.traffic` — Poisson sources and destination
  patterns (uniform per the paper, plus permutation/hotspot/local
  extensions), trace replay and shared Poisson traces;
* :mod:`repro.simulation.metrics` — measurement protocol and result types;
* :mod:`repro.simulation.saturation` — empirical saturation search;
* :mod:`repro.simulation.runner` — replication aggregation and simulated
  latency curves.
"""

from .buffered_sim import (
    BufferedWormholeSimulator,
    dateline_policy,
    simulate_buffered,
)
from .flit_sim import FlitLevelWormholeSimulator, simulate_flit_level
from .metrics import ClassStats, MetricsCollector, SimulationResult
from .runner import ReplicatedResult, run_replications, simulated_latency_curve
from .saturation import empirical_saturation
from .traffic import (
    Arrival,
    PoissonTraffic,
    TraceTraffic,
    bimodal_lengths,
    poisson_trace,
)
from .wormhole_sim import EventDrivenWormholeSimulator, simulate

__all__ = [
    "BufferedWormholeSimulator",
    "dateline_policy",
    "simulate_buffered",
    "FlitLevelWormholeSimulator",
    "simulate_flit_level",
    "ClassStats",
    "MetricsCollector",
    "SimulationResult",
    "ReplicatedResult",
    "run_replications",
    "simulated_latency_curve",
    "empirical_saturation",
    "Arrival",
    "PoissonTraffic",
    "TraceTraffic",
    "bimodal_lengths",
    "poisson_trace",
    "EventDrivenWormholeSimulator",
    "simulate",
]
