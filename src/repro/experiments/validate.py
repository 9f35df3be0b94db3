"""Experiment VALIDATE — the analytical model against the simulators.

The paper's central claim is that its model agrees with simulation below
saturation (Figure 3, the Eq. 26 saturation point).  This experiment
checks that claim over lists of *cells*.  A cell is a declarative
:class:`~repro.runs.Scenario` (topology, size, traffic pattern,
measurement protocol), a load fraction of that scenario's own Eq. 26
saturation, and the simulators that measure it.  Every cell runs through
the :class:`~repro.runs.Runner` facade:

1. one ``batch`` probe finds the saturation load;
2. the ``baseline`` backend (prior art) answers at ``load_fraction`` of
   it;
3. the ``simulate`` backend measures the same operating point once per
   listed simulator; its record carries the paper model's prediction
   (``point.model_prediction``), which is the row's model latency.

Errors are relative to the cell's first simulator, the reference
measurement.  Each cell list is a plain function of the fidelity mode:

* :func:`default_cells` — every topology family (``bft``,
  ``generalized-fattree``, ``hypercube``, ``kary-ncube``), the non-uniform
  patterns on a 64-PE fat-tree (hotspot f=0.05, transpose, bit-reversal,
  tornado) and the event-driven against the flit-level simulator on
  uniform fat-trees (``repro experiment validate``);
* :func:`scaling_cells` — the fat-tree at 16 to 1024 PEs, Section 3.6's
  "networks with up to 1024 processing nodes" (``... scaling``);
* :func:`generalized_cells` — (c, p) fat-trees with M/G/p up channels,
  the conclusion's "more than two servers" (``... generalized``);
* :func:`other_networks_cells` — the general model on the hypercube
  against the Draper–Ghosh-style baseline, and the Dally torus at low
  load (``... other-networks``).

Torus cells stay at low load: wormhole rings deadlock without virtual
channels (Dally & Seitz 1987) and the event-driven and flit-level
simulators model none (see :mod:`repro.baselines.dally`).  The fraction
is reported per row.

A new family, pattern, fault set or simulator is one more cell, not one
more module.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..runs.runner import Runner
from ..runs.scenario import Scenario
from ..util.tables import format_table
from .common import ExperimentMode, mode, relative_error

__all__ = [
    "ValidationCell",
    "ValidationRow",
    "ValidationResult",
    "default_cells",
    "scaling_cells",
    "generalized_cells",
    "other_networks_cells",
    "run_validation",
]

#: The no-virtual-channel torus limitation keeps its cell at low load.
_TORUS_LOAD_FRACTION = 0.1
_DEFAULT_LOAD_FRACTION = 0.5
_MESSAGE_FLITS = 16
_SEED = 23
#: Message length of the scaling, generalized and other-networks lists.
_LONG_FLITS = 32


@dataclass(frozen=True)
class ValidationCell:
    """One question of the validation: a scenario, a load, its simulators.

    The first simulator is the reference every error is taken against,
    and its record supplies the model latency, so a cell needs at least
    one.
    """

    scenario: Scenario
    load_fraction: float = _DEFAULT_LOAD_FRACTION
    simulators: tuple[str, ...] = ("event",)

    def __post_init__(self) -> None:
        if not self.simulators:
            raise ConfigurationError("a validation cell needs at least one simulator")


def _protocol(m: ExperimentMode, seed: int, label: str) -> dict[str, Any]:
    """The simulate-backend measurement protocol of one mode."""
    return dict(
        seed=seed,
        replications=m.replications,
        warmup_cycles=m.warmup_cycles,
        measure_cycles=m.measure_cycles,
        label=label,
    )


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
    protocol = _protocol(m, _SEED, "validate")
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
        ValidationCell(_scenario("bft", n, **protocol), simulators=both)
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
        ValidationCell(
            _scenario("bft", 64, pattern=name, pattern_params=params, **protocol)
        )
        for name, params in patterns
    ]
    return cells


def scaling_cells(experiment_mode: ExperimentMode | None = None) -> list[ValidationCell]:
    """The fat-tree at 16, 64 and 256 PEs (and 1024 in full mode).

    Each size at 5%, 40% and 75% of its saturation with 32-flit messages,
    seeded ``31 + N``.
    """
    m = experiment_mode or mode()
    sizes = (16, 64, 256, 1024) if m.full else (16, 64, 256)
    return [
        ValidationCell(
            _scenario("bft", n, _LONG_FLITS, **_protocol(m, 31 + n, "scaling")),
            fraction,
        )
        for n in sizes
        for fraction in (0.05, 0.4, 0.75)
    ]


def generalized_cells(
    experiment_mode: ExperimentMode | None = None,
) -> list[ValidationCell]:
    """Five (c, p) fat-trees at 30% and 60% of their saturation.

    The 4-ary trees with 2, 3 and 4 parents show what up-link redundancy
    buys; (8, 2) and (2, 2) vary the arity.  32-flit messages, seeded
    ``123 + 10c + p``.
    """
    m = experiment_mode or mode()
    shapes = (
        ((4, 2, 4), (4, 3, 4), (4, 4, 4), (8, 2, 3), (2, 2, 6))
        if m.full
        else ((4, 2, 3), (4, 3, 3), (4, 4, 3), (8, 2, 2), (2, 2, 4))
    )
    return [
        ValidationCell(
            _scenario(
                "generalized-fattree",
                c**n,
                _LONG_FLITS,
                children=c,
                parents=p,
                **_protocol(m, 123 + 10 * c + p, "generalized"),
            ),
            fraction,
        )
        for c, p, n in shapes
        for fraction in (0.3, 0.6)
    ]


def other_networks_cells(
    experiment_mode: ExperimentMode | None = None,
) -> list[ValidationCell]:
    """The general model beyond the fat-tree, with 32-flit messages.

    The 64-node hypercube (256 in full mode) at five (eight) fractions
    from 10% to 80% of its saturation, seed 55; its baseline column is the
    Draper–Ghosh-style recursion without the blocking correction.  The
    8-ary 2-cube at 1.75%, 3.5% and 7% of its saturation (0.005, 0.01 and
    0.02 fl/cyc/PE) on the event-driven simulator, seed 56.
    """
    m = experiment_mode or mode()
    dimension, points = (8, 8) if m.full else (6, 5)
    hypercube = _scenario(
        "hypercube", 1 << dimension, _LONG_FLITS,
        **_protocol(m, 55, "other-networks"),
    )
    torus = _scenario(
        "kary-ncube", 64, _LONG_FLITS, radix=8,
        **_protocol(m, 56, "other-networks"),
    )
    return [
        ValidationCell(hypercube, float(fraction))
        for fraction in np.linspace(0.1, 0.8, points)
    ] + [ValidationCell(torus, fraction) for fraction in (0.0175, 0.035, 0.07)]


def _scenario(
    topology: str, num_processors: int, message_flits: int = _MESSAGE_FLITS, **fields
) -> Scenario:
    return Scenario(
        topology=topology,
        num_processors=num_processors,
        message_flits=message_flits,
        sweep_points=0,
        **fields,
    )


def _shape(scenario: Scenario) -> str | None:
    """The family parameters ``N`` does not pin, e.g. ``(4,3)`` or ``k=8``."""
    params = scenario.family_params()
    if scenario.topology == "generalized-fattree":
        return f"({params['children']},{params['parents']})"
    if scenario.topology == "kary-ncube":
        return f"k={params['radix']}"
    return None


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
            "shape",
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
                    _shape(sc),
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
                "each cell's first simulator; inf = no steady state"
            ),
        )


def _validate_cell(runner: Runner, cell: ValidationCell) -> ValidationRow:
    """Probe the saturation, then answer the operating point everywhere."""
    base = cell.scenario
    probe = runner.run(base.with_backend("batch"))
    sat = probe.metrics["saturation"]["flit_load"]
    scenario = dataclasses.replace(base, flit_load=cell.load_fraction * sat)
    baseline = runner.run(scenario.with_backend("baseline"))
    points = [
        runner.run(
            dataclasses.replace(scenario, backend="simulate", simulator=simulator)
        ).metrics["point"]
        for simulator in cell.simulators
    ]
    sim_latency = {
        simulator: point["latency"] if point["stable"] else math.inf
        for simulator, point in zip(cell.simulators, points)
    }
    return ValidationRow(
        scenario=scenario,
        load_fraction=cell.load_fraction,
        saturation_flit_load=sat,
        # The simulate backend prices the paper's model at the same point.
        model_latency=points[0]["model_prediction"],
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
