"""Exact golden results of the three wormhole simulators.

``tests/data/simulators_v1.json`` records, for every case below, every
field of the :class:`SimulationResult` one seeded run returns, including
``end_time`` and the per-class ``class_stats``.  The cases cover:

* the event-driven, flit-level and buffered simulators on bft16, bft64,
  the 4- and 6-cube, and bft64 with one dead link (``FaultedTopology``);
* uniform, transpose and hotspot destinations, and a ``BurstyArrivals``
  uniform source;
* the buffered simulator with 1, 2 and 4 flit buffers, two virtual
  channels, and the dateline policy on a 4x4 torus;
* variable-length worms on the event-driven simulator.

Floats are stored with :meth:`float.hex`, so the comparisons are ``==``:
a change to a simulator's state handling that moves any trajectory (an
``rng`` draw taken in another order, a grant given to another waiter)
fails here even when the statistics stay plausible.

Regenerate (only when a deliberate, documented change moves the answers)::

    PYTHONPATH=src python tests/test_simulator_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import ButterflyFatTree, Hypercube, KaryNCube, SimConfig, Workload
from repro.faults import FaultedTopology, FaultSpec
from repro.simulation import (
    PoissonTraffic,
    SimulationResult,
    bimodal_lengths,
    simulate,
    simulate_buffered,
    simulate_flit_level,
)
from repro.traffic.spec import BurstyArrivals, HotspotSpec, TransposeSpec

GOLDEN = Path(__file__).parent / "data" / "simulators_v1.json"

FLITS = 16
CONFIG = SimConfig(warmup_cycles=300.0, measure_cycles=900.0, seed=5)

#: name -> (topology builder, flit load about half its saturation)
TOPOLOGIES = {
    "bft16": (lambda: ButterflyFatTree(16), 0.17),
    "bft64": (lambda: ButterflyFatTree(64), 0.085),
    "hc4": (lambda: Hypercube(4), 0.17),
    "hc6": (lambda: Hypercube(6), 0.08),
    "bft64-dead-up:1:0": (
        lambda: FaultedTopology(
            ButterflyFatTree(64), FaultSpec(dead_links=("up:1:0",))
        ),
        0.08,
    ),
}

#: name -> PoissonTraffic keyword arguments
TRAFFIC = {
    "uniform": {},
    "transpose": {"spec": TransposeSpec()},
    "hotspot": {"spec": HotspotSpec(fraction=0.05)},
    "bursty": {"bursty": BurstyArrivals(duty=0.5, burst_cycles=40.0)},
}

SIMULATORS = {
    "event": simulate,
    "flit": simulate_flit_level,
    "buffered": simulate_buffered,
}


def _matrix_cases() -> dict:
    cases = {}
    for topo_name, (build, load) in TOPOLOGIES.items():
        for traffic_name, traffic in TRAFFIC.items():
            for sim_name in SIMULATORS:
                cases[f"{sim_name}/{topo_name}/{traffic_name}"] = {
                    "simulator": sim_name,
                    "topology": build,
                    "load": load,
                    "traffic": traffic,
                    "options": {},
                }
    return cases


def _extra_cases() -> dict:
    bft16, _ = TOPOLOGIES["bft16"]
    bft64, _ = TOPOLOGIES["bft64"]
    hc6, _ = TOPOLOGIES["hc6"]
    cases = {}
    for depth in (1, 2, 4):
        cases[f"buffered/bft64/uniform/B={depth}"] = {
            "simulator": "buffered",
            "topology": bft64,
            "load": 0.085,
            "traffic": {},
            "options": {"buffer_flits": depth},
        }
    for name, build, load in (("bft16", bft16, 0.17), ("hc6", hc6, 0.08)):
        cases[f"buffered/{name}/uniform/V=2"] = {
            "simulator": "buffered",
            "topology": build,
            "load": load,
            "traffic": {},
            "options": {"virtual_channels": 2},
        }
    cases["buffered/torus4x4/uniform/dateline"] = {
        "simulator": "buffered",
        "topology": lambda: KaryNCube(4, 2),
        "load": 0.08,
        "traffic": {},
        "options": {"virtual_channels": 2, "vc_policy": "dateline"},
    }
    for name, build, load in (("bft16", bft16, 0.17), ("hc6", hc6, 0.08)):
        cases[f"event/{name}/uniform/bimodal"] = {
            "simulator": "event",
            "topology": build,
            "load": load,
            "traffic": {"length_sampler": bimodal_lengths(4, 28, 0.5)},
            "options": {},
        }
    return cases


CASES = {**_matrix_cases(), **_extra_cases()}


def _encode(value):
    """JSON form of one result field: floats as hex, records as dicts."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    raise TypeError(f"cannot encode {type(value).__name__}")


def run_case(case: dict) -> SimulationResult:
    topology = case["topology"]()
    workload = Workload.from_flit_load(case["load"], FLITS)
    traffic = PoissonTraffic(
        topology.num_processors, workload, seed=CONFIG.seed, **case["traffic"]
    )
    return SIMULATORS[case["simulator"]](
        topology, workload, CONFIG, traffic=traffic, **case["options"]
    )


def compute_case(case: dict) -> dict:
    result = run_case(case)
    return {
        f.name: _encode(getattr(result, f.name))
        for f in dataclasses.fields(SimulationResult)
    }


def write_golden() -> None:
    record = {
        "description": (
            "Every SimulationResult field of seeded event, flit and buffered "
            "runs; floats are float.hex"
        ),
        "cases": {name: compute_case(case) for name, case in CASES.items()},
    }
    GOLDEN.write_text(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def test_fixture_covers_every_case_and_field(golden):
    assert sorted(golden) == sorted(CASES)
    names = sorted(f.name for f in dataclasses.fields(SimulationResult))
    for stored in golden.values():
        assert sorted(stored) == names


def test_fixture_exercises_contention(golden):
    """Every case delivers enough tagged messages, at varying latencies,
    for contention to shape the recorded statistics."""
    for name, stored in golden.items():
        assert stored["tagged_delivered"] > 50, name
        latency = float.fromhex(stored["latency_max"])
        assert latency > float.fromhex(stored["latency_min"]), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulator_matches_golden_exactly(golden, name):
    computed = compute_case(CASES[name])
    stored = golden[name]
    for field in sorted(stored):
        assert computed[field] == stored[field], field


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN}")
