"""Experiment harness — one module per paper artifact.

* :mod:`repro.experiments.fig3` — Figure 3 (latency vs load, N=1024);
* :mod:`repro.experiments.throughput_table` — saturation throughput table
  (Sections 3.5/3.6);
* :mod:`repro.experiments.ablations` — model-variant ablations (the two
  novelties + modelling choices);
* :mod:`repro.experiments.validate` — the model against the simulators,
  one table per cell list, every cell through the batch/baseline/simulate
  backends of the facade: :func:`default_cells` (every topology family,
  non-uniform traffic, event-driven vs flit-level simulation),
  :func:`scaling_cells` (network sizes "up to 1024 processing nodes"),
  :func:`generalized_cells` ((c, p) fat-trees with M/G/p up channels)
  and :func:`other_networks_cells` (the general model on the hypercube
  against the Draper–Ghosh-style baseline, the Dally torus at low load);
* :mod:`repro.experiments.buffering` — Figure 3's sensitivity to router
  buffer depth (the input-buffered simulator);
* :mod:`repro.experiments.service_times` — per-channel service times and
  Eq. 14 arrival rates, model internals against simulation;
* :mod:`repro.experiments.design_exploration` — SLO-driven sizing of a
  CM-5-class machine through the design-space explorer;
* :mod:`repro.experiments.faults` — degraded-mode curves: per-family
  saturation and latency as seeded random link failures accumulate.

All experiments honour ``REPRO_FULL=1`` for paper-scale runs and default to
quick mode (see :mod:`repro.experiments.common`).
"""

from .ablations import AblationResult, run_ablations
from .buffering import BufferingResult, run_buffering
from .common import ExperimentMode, full_mode, mode, relative_error
from .design_exploration import (
    DesignExplorationResult,
    default_design_scenarios,
    run_design_exploration,
)
from .faults import (
    FaultDegradationResult,
    FaultDegradationRow,
    run_fault_degradation,
)
from .fig3 import Fig3Result, run_fig3
from .report import default_results_dir, write_report
from .service_times import ServiceTimeResult, run_service_times
from .throughput_table import ThroughputResult, run_throughput_table
from .validate import (
    ValidationCell,
    ValidationResult,
    ValidationRow,
    default_cells,
    generalized_cells,
    other_networks_cells,
    run_validation,
    scaling_cells,
)

__all__ = [
    "AblationResult",
    "run_ablations",
    "BufferingResult",
    "run_buffering",
    "ExperimentMode",
    "full_mode",
    "mode",
    "relative_error",
    "DesignExplorationResult",
    "default_design_scenarios",
    "run_design_exploration",
    "FaultDegradationResult",
    "FaultDegradationRow",
    "run_fault_degradation",
    "Fig3Result",
    "run_fig3",
    "default_results_dir",
    "write_report",
    "ServiceTimeResult",
    "run_service_times",
    "ThroughputResult",
    "run_throughput_table",
    "ValidationCell",
    "ValidationResult",
    "ValidationRow",
    "default_cells",
    "scaling_cells",
    "generalized_cells",
    "other_networks_cells",
    "run_validation",
]
