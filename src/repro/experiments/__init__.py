"""Experiment harness — one module per paper artifact.

* :mod:`repro.experiments.fig3` — Figure 3 (latency vs load, N=1024);
* :mod:`repro.experiments.throughput_table` — saturation throughput table
  (Sections 3.5/3.6);
* :mod:`repro.experiments.scaling` — network-size sweep ("up to 1024
  processing nodes");
* :mod:`repro.experiments.ablations` — model-variant ablations (the two
  novelties + modelling choices);
* :mod:`repro.experiments.other_networks` — the general model on the
  hypercube plus the Dally torus baseline;
* :mod:`repro.experiments.validate` — the model against the simulators
  over one cell list: every topology family through the
  model/baseline/simulate backends of the facade, non-uniform traffic
  (hotspot, transpose, ...) and event-driven vs flit-level simulation;
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
from .generalized import GeneralizedResult, run_generalized
from .other_networks import OtherNetworksResult, run_other_networks
from .report import default_results_dir, write_report
from .scaling import ScalingResult, run_scaling
from .service_times import ServiceTimeResult, run_service_times
from .throughput_table import ThroughputResult, run_throughput_table
from .validate import (
    ValidationCell,
    ValidationResult,
    ValidationRow,
    default_cells,
    run_validation,
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
    "GeneralizedResult",
    "run_generalized",
    "OtherNetworksResult",
    "run_other_networks",
    "default_results_dir",
    "write_report",
    "ScalingResult",
    "run_scaling",
    "ServiceTimeResult",
    "run_service_times",
    "ThroughputResult",
    "run_throughput_table",
    "ValidationCell",
    "ValidationResult",
    "ValidationRow",
    "default_cells",
    "run_validation",
]
