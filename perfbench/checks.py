"""Output checks: invariants for any seed, stored answers for the default one.

Every check returns a list of problems (empty means the answer passed).
A problem counts the op as failed, which makes the run report
``correct: false`` and exit non-zero.

Stored answers live in ``perfbench/reference/<workload>.json``; they were
produced by this benchmark on the default seed (``run.py
--write-reference``) and are compared within :data:`REL_TOL`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: Relative tolerance against stored answers (summation-order changes
#: stay far inside it; a changed model does not).
REL_TOL = 1e-9
#: Answers kept per workload when a reference is written.
REFERENCE_ENTRIES = 40


def load_reference(workload: str) -> dict[str, Any]:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["answers"]


def write_reference(workload: str, seed: int, answers: Mapping[str, Any]) -> Path:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    kept = dict(list(answers.items())[:REFERENCE_ENTRIES])
    path.write_text(
        json.dumps({"seed": seed, "answers": kept}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def against_reference(key: str, entry: Mapping[str, Any], reference: Mapping[str, Any]) -> list[str]:
    stored = reference.get(key)
    if stored is None:
        return []
    return [
        f"{name} = {entry.get(name)!r}, reference {value!r}"
        for name, value in stored.items()
        if not _close(entry.get(name), value)
    ]


def _positive_finite(x: Any) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


# --- run_closed_form ----------------------------------------------------------------


def closed_form_entry(metrics: Mapping[str, Any]) -> dict[str, Any]:
    curve = metrics.get("curve")
    return {
        "latency": metrics["point"]["latency"],
        "saturation": metrics["saturation"]["flit_load"],
        "curve": None if curve is None else list(curve["latencies"]),
    }


def closed_form(scenario, metrics: Mapping[str, Any], reference: Mapping[str, Any]) -> list[str]:
    problems = []
    entry = closed_form_entry(metrics)
    if not _positive_finite(entry["latency"]):
        problems.append(f"point latency {entry['latency']!r} is not finite and positive")
    if not (scenario.flit_load < entry["saturation"]):
        problems.append(
            f"operating load {scenario.flit_load} not below saturation {entry['saturation']}"
        )
    if scenario.sweep_points:
        lat = entry["curve"] or []
        if len(lat) != scenario.sweep_points:
            problems.append(f"curve has {len(lat)} points, asked {scenario.sweep_points}")
        if not all(_positive_finite(x) for x in lat):
            problems.append("curve latency not finite and positive")
        if any(b < a for a, b in zip(lat, lat[1:])):
            problems.append("curve latency decreases with load")
    return problems + against_reference(scenario.key(), entry, reference)


# --- explore_faults -----------------------------------------------------------------


def explore_key(call) -> str:
    return (
        f"demand={call.demand_flit_load}|slo={call.latency_slo}|"
        f"headroom={call.min_headroom}|fault_seed={call.fault_seed}"
    )


def _label(evaluation) -> str:
    c = evaluation.candidate
    return f"{c.family}{dict(c.params)}/F{c.message_flits}/{c.pattern}/b{c.buffer_depth}"


def explore_entry(result) -> dict[str, Any]:
    cheapest = result.cheapest_feasible
    return {
        "evaluated": len(result.evaluations),
        "feasible": sorted(_label(e) for e in result.feasible),
        "cheapest": None if cheapest is None else _label(cheapest),
        # Latencies past saturation are inf; they are stored as strings.
        "latencies": [
            float(e.latency) if math.isfinite(e.latency) else str(e.latency)
            for e in result.evaluations
        ],
    }


def explore(call, result, reference: Mapping[str, Any]) -> list[str]:
    problems = []
    req = result.requirements
    for e in result.feasible:
        if not (e.latency <= req.latency_slo):
            problems.append(f"feasible {_label(e)} latency {e.latency} above SLO {req.latency_slo}")
        if not (e.headroom >= req.min_headroom):
            problems.append(f"feasible {_label(e)} headroom {e.headroom} below {req.min_headroom}")
        d = e.degraded
        if d is None or not (d.latency <= req.latency_slo):
            problems.append(f"feasible {_label(e)} does not survive its link failure within the SLO")
    for e in result.evaluations:
        lat = e.latency
        if not (lat > 0):
            problems.append(f"{_label(e)} latency {lat!r} is not positive")
    if not result.evaluations:
        problems.append("no candidate evaluated")
    return problems + against_reference(explore_key(call), explore_entry(result), reference)


# --- simulate_replicas --------------------------------------------------------------


def simulate_entry(metrics: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "latency": metrics["point"]["latency"],
        "model_prediction": metrics["point"]["model_prediction"],
        "replications": [r["latency_mean"] for r in metrics["replications"]],
    }


def simulate(scenario, metrics: Mapping[str, Any], reference: Mapping[str, Any]) -> list[str]:
    problems = []
    point = metrics["point"]
    if not _positive_finite(point["latency"]):
        problems.append(f"simulated latency {point['latency']!r} is not finite and positive")
    if not _positive_finite(point["model_prediction"]):
        problems.append(f"model prediction {point['model_prediction']!r} is not finite and positive")
    if not point["stable"]:
        problems.append("simulation unstable below saturation")
    health = metrics["replication_health"]
    if health["completed"] != scenario.replications or health["failures"]:
        problems.append(f"replications completed {health['completed']} of {scenario.replications}")
    return problems + against_reference(scenario.key(), simulate_entry(metrics), reference)


def replay(first: Mapping[str, Any], again: Mapping[str, Any]) -> list[str]:
    """A seeded simulation run twice must give identical statistics."""
    if first["replications"] != again["replications"] or first["point"] != again["point"]:
        return ["replayed simulation statistics differ from the first run"]
    return []


# --- serve_mixed --------------------------------------------------------------------


def serve_entry(record: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "latency": record["metrics"]["point"]["latency"],
        "saturation": record["metrics"]["saturation"]["flit_load"],
    }


def serve_answer(record: Mapping[str, Any], scenario: Mapping[str, Any]) -> list[str]:
    problems = []
    entry = serve_entry(record)
    if not _positive_finite(entry["latency"]):
        problems.append(f"served latency {entry['latency']!r} is not finite and positive")
    if not (scenario["flit_load"] < entry["saturation"]):
        problems.append("served operating load not below saturation")
    return problems


def same_answer(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Two served records answer alike: identical metrics apart from telemetry."""

    def strip(record):
        return {k: v for k, v in record["metrics"].items() if k != "observability"}

    return strip(a) == strip(b)
