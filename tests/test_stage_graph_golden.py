"""Exact golden values of the stage-graph engine (``ChannelGraphModel``).

``tests/data/stage_graph_v1.json`` was written by the per-stage engine that
walked the graph one stage and one transition at a time.  The compiled
engine must reproduce every recorded float exactly, on wide pattern graphs,
fault-masked graphs, the cyclic faulted torus, a hand-built ring and two
ablation variants:

* each stage's ``service`` / ``wait`` from ``solve_batch``;
* ``latency_batch`` and ``stability_batch`` on the same grid;
* the solver counters one ``solve_batch`` call records.

Every grid holds 0, 1e-9 and points past saturation.  Floats are stored
with :meth:`float.hex`, so the comparisons are ``==``.

Regenerate (only when a deliberate, documented change moves the answers)::

    PYTHONPATH=src python tests/test_stage_graph_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import ButterflyFatTree, Hypercube, ModelVariant, Workload
from repro.core.generic_model import (
    ChannelGraphModel,
    Stage,
    Transition,
    bft_stage_graph,
    hypercube_stage_graph,
)
from repro.design.families import design_family
from repro.errors import ConfigurationError
from repro.faults import FaultSpec
from repro.obs import METRICS
from repro.traffic.analytic import stage_graph_from_flows
from repro.traffic.flows import bft_channel_flows, single_path_flows
from repro.traffic.spec import HotspotSpec, TransposeSpec

GOLDEN = Path(__file__).parent / "data" / "stage_graph_v1.json"

FLITS = 16
WORKLOAD = Workload.from_flit_load(0.02, FLITS)
COUNTERS = (
    "solve.batch",
    "solve.points",
    "solve.saturated_points",
    "fixed_point.solves",
)


def _ring_graph() -> ChannelGraphModel:
    """Two mutually dependent stages plus an ejection stage (cyclic)."""
    rate = 0.002
    return ChannelGraphModel(
        [
            Stage("eject", rate_per_server=rate),
            Stage(
                "a",
                rate_per_server=rate,
                transitions=(Transition("b", 0.5), Transition("eject", 0.5)),
            ),
            Stage(
                "b",
                rate_per_server=rate,
                transitions=(Transition("a", 0.5), Transition("eject", 0.5)),
            ),
        ],
        message_flits=8,
        entry="a",
        average_distance=2.5,
    )


def _faulted(family: str, params: dict, dead: str, baseline: bool = False):
    return design_family(family).evaluator(
        params,
        None,
        FLITS,
        faults=FaultSpec(dead_links=(dead,)),
        baseline=baseline,
    )


def _bft(num_processors: int, spec, variant=None) -> ChannelGraphModel:
    flows = bft_channel_flows(ButterflyFatTree(num_processors), spec)
    return stage_graph_from_flows(flows, WORKLOAD, variant)


def _hypercube(dimension: int, spec) -> ChannelGraphModel:
    flows = single_path_flows(Hypercube(dimension), spec)
    return stage_graph_from_flows(flows, WORKLOAD)


GRAPHS = {
    "bft64-hotspot": lambda: _bft(64, HotspotSpec(fraction=0.2)),
    "hc6-hotspot": lambda: _hypercube(6, HotspotSpec(fraction=0.2)),
    "bft256-transpose": lambda: _bft(256, TransposeSpec()),
    "bft64-uniform-closed": lambda: bft_stage_graph(64, WORKLOAD),
    "hc6-uniform-closed": lambda: hypercube_stage_graph(6, WORKLOAD),
    "bft64-dead-up:1:0": lambda: _faulted("bft", {"processors": 64}, "up:1:0"),
    "bft64-dead-up:1:0-naive": lambda: _faulted(
        "bft", {"processors": 64}, "up:1:0", baseline=True
    ),
    "hc4-dead-up:0:1": lambda: _faulted("hypercube", {"dimension": 4}, "up:0:1"),
    "torus3x3-dead-up:0:1": lambda: _faulted(
        "kary-ncube", {"radix": 3, "dimensions": 2}, "up:0:1"
    ),
    "ring": _ring_graph,
    "bft64-hotspot-no-blocking": lambda: _bft(
        64, HotspotSpec(fraction=0.2), ModelVariant.no_blocking_correction()
    ),
    "bft64-hotspot-scv=1": lambda: _bft(
        64, HotspotSpec(fraction=0.2), ModelVariant.exponential_scv()
    ),
}
CYCLIC = {"torus3x3-dead-up:0:1", "ring"}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _unhex(values: list[str]) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values])


def scale_grid(graph: ChannelGraphModel) -> np.ndarray:
    """Rate scales from zero load to well past saturation.

    ``top`` is the first power of two whose scale is unstable, so it lies
    between one and two times the saturation scale.
    """
    reference = graph._reference_rate()
    top = 1.0 / 64.0
    while graph.stability_batch(np.array([top * reference]))[0]:
        top *= 2.0
    below = np.linspace(0.05, 1.0, 12) * top
    return np.concatenate(([0.0, 1e-9], below, [1.5 * top, 3.0 * top]))


def compute_case(graph: ChannelGraphModel, scales: np.ndarray) -> dict:
    """Everything the fixture records for one graph on one scale grid."""
    with METRICS.collect() as telemetry:
        solved = graph.solve_batch(scales)
    loads = scales * graph._reference_rate()
    counters = telemetry.data["counters"]
    iterations = telemetry.data["histograms"].get("fixed_point.iterations")
    return {
        "grid": _hex(scales),
        "service": {name: _hex(s.service) for name, s in solved.items()},
        "wait": {name: _hex(s.wait) for name, s in solved.items()},
        "latency_batch": _hex(graph.latency_batch(loads)),
        "stability_batch": [bool(x) for x in graph.stability_batch(loads)],
        "counters": {key: counters.get(key, 0) for key in COUNTERS},
        "fixed_point_iterations": iterations["total"] if iterations else 0,
    }


def write_golden() -> None:
    cases = {}
    for name, build in GRAPHS.items():
        graph = build()
        cases[name] = compute_case(graph, scale_grid(graph))
    record = {
        "description": (
            "ChannelGraphModel.solve_batch answers and solver counters; "
            "floats are float.hex"
        ),
        "cases": cases,
    }
    GOLDEN.write_text(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def test_fixture_covers_every_graph(golden):
    assert sorted(golden) == sorted(GRAPHS)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_stage_graph_matches_golden_exactly(golden, name):
    stored = golden[name]
    graph = GRAPHS[name]()
    assert graph.is_acyclic == (name not in CYCLIC)
    computed = compute_case(graph, _unhex(stored["grid"]))
    for key in ("service", "wait"):
        assert computed[key].keys() == stored[key].keys(), key
        for stage, values in stored[key].items():
            assert computed[key][stage] == values, (key, stage)
    assert computed["latency_batch"] == stored["latency_batch"]
    assert computed["stability_batch"] == stored["stability_batch"]
    # The grid really crosses saturation.
    latencies = _unhex(stored["latency_batch"])
    assert np.isfinite(latencies[0]) and np.isinf(latencies[-1])


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_solver_counters_and_spans_match_golden(golden, name):
    stored = golden[name]
    graph = GRAPHS[name]()
    with METRICS.collect() as telemetry:
        graph.solve_batch(_unhex(stored["grid"]))
    counters = telemetry.data["counters"]
    assert {key: counters.get(key, 0) for key in COUNTERS} == stored["counters"]
    iterations = telemetry.data["histograms"].get("fixed_point.iterations")
    assert (iterations["total"] if iterations else 0) == stored[
        "fixed_point_iterations"
    ]
    spans = telemetry.data["spans"]
    assert spans["solve/stage_graph"]["count"] == 1
    assert ("solve/fixed_point" in spans) == (name in CYCLIC)


class TestInvalidGraphsStillRejected:
    def test_negative_rate(self):
        with pytest.raises(ConfigurationError):
            ChannelGraphModel(
                [Stage("eject", rate_per_server=-0.001)],
                message_flits=8,
                entry="eject",
                average_distance=1.0,
            ).solve_batch(np.ones(1))

    @pytest.mark.parametrize("queue_probability", [-0.1, 1.5, float("nan")])
    def test_out_of_range_queue_probability(self, queue_probability):
        with pytest.raises(ConfigurationError):
            ChannelGraphModel(
                [
                    Stage("eject", rate_per_server=0.001),
                    Stage(
                        "inject",
                        rate_per_server=0.001,
                        transitions=(
                            Transition("eject", 1.0, queue_probability),
                        ),
                    ),
                ],
                message_flits=8,
                entry="inject",
                average_distance=2.0,
            ).solve_batch(np.ones(1))


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN}")
