"""Experiment VALIDATE — the analytical model against the simulators.

The paper's central claim is that its model agrees with simulation below
saturation (Figure 3, the Eq. 26 saturation point).  This experiment
checks that claim over one list of *cells*.  A cell is a declarative
:class:`~repro.runs.Scenario` (topology, size, traffic pattern,
measurement protocol), a load fraction of that scenario's own Eq. 26
saturation, and the simulators that measure it.  Every cell runs through
the :class:`~repro.runs.Runner` facade:

1. one ``batch`` probe finds the saturation load;
2. the ``model`` (the paper) and ``baseline`` (prior art) backends answer
   at ``load_fraction`` of it;
3. the ``simulate`` backend measures the same operating point once per
   listed simulator.

Errors are relative to the cell's first simulator, the reference
measurement.  The default cells cover every topology family
(``bft``, ``generalized-fattree``, ``hypercube``, ``kary-ncube``), the
non-uniform patterns on a 64-PE fat-tree (hotspot f=0.05, transpose,
bit-reversal, tornado) and the event-driven against the flit-level
simulator on uniform fat-trees.  Every cell runs at half saturation
except the torus, which runs at 10%: wormhole rings deadlock without
virtual channels (Dally & Seitz 1987) and the simulators model none (see
:mod:`repro.baselines.dally`).  The fraction is reported per row.

A new family, pattern, fault set or simulator is one more cell, not one
more module.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from ..runs.runner import Runner
from ..runs.scenario import Scenario
from ..util.tables import format_table
from .common import ExperimentMode, mode, relative_error

__all__ = [
    "ValidationCell",
    "ValidationRow",
    "ValidationResult",
    "default_cells",
    "run_validation",
]

#: The no-virtual-channel torus limitation keeps its cell at low load.
_TORUS_LOAD_FRACTION = 0.1
_DEFAULT_LOAD_FRACTION = 0.5
_MESSAGE_FLITS = 16
_SEED = 23


class ValidationCell(NamedTuple):
    """One question of the validation: a scenario, a load, its simulators."""

    scenario: Scenario
    load_fraction: float = _DEFAULT_LOAD_FRACTION
    simulators: tuple[str, ...] = ("event",)


def _family_scenarios(full: bool, message_flits: int) -> list[Scenario]:
    """One representative scenario per family (paper-scale when ``full``)."""
    if full:
        shapes = [
            dict(topology="bft", num_processors=256),
            dict(topology="generalized-fattree", num_processors=256,
                 children=4, parents=2),
            dict(topology="hypercube", num_processors=256),
            dict(topology="kary-ncube", num_processors=64, radix=4),
        ]
    else:
        shapes = [
            dict(topology="bft", num_processors=16),
            dict(topology="generalized-fattree", num_processors=8,
                 children=2, parents=2),
            dict(topology="hypercube", num_processors=16),
            dict(topology="kary-ncube", num_processors=9, radix=3),
        ]
    return [
        Scenario(message_flits=message_flits, sweep_points=0, **shape)
        for shape in shapes
    ]


def default_cells(experiment_mode: ExperimentMode | None = None) -> list[ValidationCell]:
    """The validation cells of one fidelity mode.

    Each family shape once, uniform and nominal, on the event-driven
    simulator; the uniform fat-trees of the simulator cross-check (16 and
    64 PEs, plus 256 in full mode) on the event-driven and flit-level
    simulators; and the 64-PE fat-tree under each non-uniform pattern.
    """
    m = experiment_mode or mode()
    protocol = dict(
        seed=_SEED,
        replications=m.replications,
        warmup_cycles=m.warmup_cycles,
        measure_cycles=m.measure_cycles,
        label="validate",
    )
    both = ("event", "flit")
    family = [
        dataclasses.replace(base, **protocol)
        for base in _family_scenarios(m.full, _MESSAGE_FLITS)
    ]
    cells = [
        ValidationCell(
            scenario,
            _TORUS_LOAD_FRACTION
            if scenario.topology == "kary-ncube"
            else _DEFAULT_LOAD_FRACTION,
            both if scenario.topology == "bft" else ("event",),
        )
        for scenario in family
    ]
    # The family list already holds one uniform fat-tree (family[0]).
    crosscheck_sizes = (16, 64, 256) if m.full else (16, 64)
    cells += [
        ValidationCell(_bft(n, **protocol), simulators=both)
        for n in crosscheck_sizes
        if n != family[0].num_processors
    ]
    patterns = [
        ("hotspot", {"hotspot_fraction": 0.05, "hotspot_target": 0}),
        ("transpose", {}),
        ("bit-reversal", {}),
        ("tornado", {}),
    ]
    cells += [
        ValidationCell(_bft(64, pattern=name, pattern_params=params, **protocol))
        for name, params in patterns
    ]
    return cells


def _bft(num_processors: int, **fields) -> Scenario:
    return Scenario(
        topology="bft",
        num_processors=num_processors,
        message_flits=_MESSAGE_FLITS,
        sweep_points=0,
        **fields,
    )


@dataclass(frozen=True)
class ValidationRow:
    """One cell's model, baseline and simulator latencies.

    ``scenario`` is the cell's scenario at its operating point, so
    ``repro.run(row.scenario.with_backend("batch"))`` reproduces
    ``model_latency`` and ``saturation_flit_load`` exactly.
    ``sim_latency`` maps each simulator to its measured mean latency
    (``inf`` when the run did not reach steady state); the first entry is
    the reference every error is taken against.
    """

    scenario: Scenario
    load_fraction: float
    saturation_flit_load: float
    model_latency: float
    baseline_latency: float
    sim_latency: Mapping[str, float]

    @property
    def reference_latency(self) -> float:
        return next(iter(self.sim_latency.values()))

    def error(self, latency: float) -> float:
        """Relative error of ``latency`` against the reference simulator."""
        return relative_error(latency, self.reference_latency)

    @property
    def model_err(self) -> float:
        return self.error(self.model_latency)

    @property
    def baseline_err(self) -> float:
        return self.error(self.baseline_latency)


@dataclass(frozen=True)
class ValidationResult:
    """The rows of one validation run, rendered as one table."""

    rows: tuple[ValidationRow, ...]
    mode_label: str

    def render(self) -> str:
        simulators: list[str] = []
        for row in self.rows:
            simulators += [s for s in row.sim_latency if s not in simulators]
        headers = [
            "topology",
            "N",
            "pattern",
            "load frac",
            "load (fl/cyc/PE)",
            "sat load",
            "model",
            "baseline",
            *simulators,
            "model err",
            "baseline err",
            *(f"{s} err" for s in simulators[1:]),
        ]
        body = []
        for r in self.rows:
            sc = r.scenario
            sims = [r.sim_latency.get(s) for s in simulators]
            body.append(
                [
                    sc.topology,
                    sc.num_processors,
                    sc.pattern,
                    r.load_fraction,
                    sc.flit_load,
                    r.saturation_flit_load,
                    r.model_latency,
                    r.baseline_latency,
                    *sims,
                    r.model_err,
                    r.baseline_err,
                    *(None if lat is None else r.error(lat) for lat in sims[1:]),
                ]
            )
        return format_table(
            headers,
            body,
            title=(
                f"Model vs simulation ({self.mode_label} mode): errors against "
                "each cell's first simulator; inf = no steady state; torus at "
                f"{_TORUS_LOAD_FRACTION:.0%} of saturation (no virtual channels)"
            ),
        )


def _validate_cell(runner: Runner, cell: ValidationCell) -> ValidationRow:
    """Probe the saturation, then answer the operating point everywhere."""
    base = cell.scenario
    probe = runner.run(base.with_backend("batch"))
    sat = probe.metrics["saturation"]["flit_load"]
    scenario = dataclasses.replace(base, flit_load=cell.load_fraction * sat)
    model = runner.run(scenario.with_backend("model"))
    baseline = runner.run(scenario.with_backend("baseline"))
    sim_latency: dict[str, float] = {}
    for simulator in cell.simulators:
        measured = runner.run(
            dataclasses.replace(scenario, backend="simulate", simulator=simulator)
        )
        point = measured.metrics["point"]
        sim_latency[simulator] = point["latency"] if point["stable"] else math.inf
    return ValidationRow(
        scenario=scenario,
        load_fraction=cell.load_fraction,
        saturation_flit_load=sat,
        model_latency=model.metrics["point"]["latency"],
        baseline_latency=baseline.metrics["point"]["latency"],
        sim_latency=sim_latency,
    )


def run_validation(
    *,
    cells: Sequence[ValidationCell] | None = None,
    experiment_mode: ExperimentMode | None = None,
) -> ValidationResult:
    """Answer every cell (default: :func:`default_cells` of the mode)."""
    m = experiment_mode or mode()
    if cells is None:
        cells = default_cells(m)
    runner = Runner()
    rows = tuple(_validate_cell(runner, cell) for cell in cells)
    return ValidationResult(rows=rows, mode_label=m.label)
