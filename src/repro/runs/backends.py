"""Backend dispatch: one scenario in, comparable metrics out.

Each backend answers the same scenario with the engine it names and
returns a ``(metrics, timings)`` pair in a shared layout, so records from
different backends (and different topology families) diff cleanly in the
registry:

``metrics["point"]``
    Latency (and, for simulations, throughput/stability) at the
    scenario's operating point.
``metrics["saturation"]``
    The Eq. 26 saturation point (analytical backends only; the empirical
    search is a deliberate extra step, not an implicit cost).
``metrics["curve"]``
    The latency-vs-load series over the scenario's grid, when
    ``sweep_points >= 2`` (analytical backends only — simulation cost is
    per point, so simulated curves stay an explicit choice).

``batch`` answers through the vectorized engine; ``model`` is kept as a
name (its scenario keys and stored records stay valid) and is answered
by the same code, so both record ``"engine": "batch"``; ``baseline``
swaps in the family's prior-art model variant; ``simulate`` runs an
independently seeded replication set and records the model prediction
alongside for crosschecks.

Topology families resolve through the design-family registry
(:mod:`repro.design.families`): ``scenario.family_params()`` names one
assignment, and the family supplies the analytical evaluator (one
resolver for every pattern, fault set and variant) and the simulator
topology.  Every evaluator answers through its ``latency_batch``: the
operating point is a one-element batch and the curve one batched solve
over its grid.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from ..core.sweep import LatencyCurve, figure3_grid, latency_sweep
from ..core.throughput import SaturationResult, saturation_injection_rate
from ..design.evaluate import point_latency
from ..design.families import DesignFamily, design_family
from ..errors import ConfigurationError
from ..faults import FaultedTopology, degraded_spec
from ..obs import trace_span
from ..simulation.buffered_sim import BufferedWormholeSimulator
from ..simulation.flit_sim import FlitLevelWormholeSimulator
from ..simulation.runner import run_replications
from ..simulation.traffic import PoissonTraffic
from ..simulation.wormhole_sim import EventDrivenWormholeSimulator
from .scenario import Scenario

__all__ = ["execute", "backend_names"]

_SIMULATOR_CLASSES = {
    "event": EventDrivenWormholeSimulator,
    "flit": FlitLevelWormholeSimulator,
    "buffered": BufferedWormholeSimulator,
}


def backend_names() -> tuple[str, ...]:
    """The registered backend names (mirrors :data:`Scenario` validation)."""
    return tuple(_BACKENDS)


def execute(scenario: Scenario) -> tuple[dict, dict]:
    """Evaluate ``scenario`` with its backend; returns ``(metrics, timings)``."""
    try:
        runner = _BACKENDS[scenario.backend]
    except KeyError:  # pragma: no cover - Scenario validates first
        raise ConfigurationError(f"unknown backend {scenario.backend!r}")
    return runner(scenario)


# --- family resolution ---------------------------------------------------------------


def _family_for(scenario: Scenario) -> tuple[DesignFamily, dict[str, int]]:
    """The design family answering this scenario, with its parameters."""
    return design_family(scenario.topology), scenario.family_params()


def _evaluator_for(scenario: Scenario) -> Any:
    """The object whose (batch) engine answers this scenario.

    Resolved once through the family registry
    (:meth:`~repro.design.families.DesignFamily.evaluator`) and reused for
    the point, the saturation search and the sweep; the ``baseline``
    backend resolves the family's prior-art variant.
    """
    fam, params = _family_for(scenario)
    return fam.evaluator(
        params,
        scenario.spec(),
        scenario.message_flits,
        faults=scenario.fault_spec(),
        baseline=scenario.backend == "baseline",
    )


def _fault_provenance(scenario: Scenario, topo: Any = None) -> dict | None:
    """The fault block recorded in every backend's metrics (None = nominal).

    Resolves the scenario's :class:`~repro.faults.FaultSpec` against the
    concrete topology so the record names the *physical* links that died —
    random-failure specs become auditable after the fact.
    """
    faults = scenario.fault_spec()
    if faults is None:
        return None
    if topo is None:
        fam, params = _family_for(scenario)
        topo = FaultedTopology(fam.topology(params), faults)
    return {
        "spec": faults.to_json(),
        "dead_links": topo.faults.dead_link_refs(topo.base),
        "dead_switches": list(faults.dead_switches),
        "dead_terminals": sorted(topo.dead_terminals),
    }


def _variant_label(evaluator: Any) -> str:
    """The model-variant label recorded with analytical metrics."""
    variant = getattr(evaluator, "variant", None)
    return getattr(variant, "label", type(evaluator).__name__)


def _grid_for(scenario: Scenario, saturation_flit_load: float) -> np.ndarray | None:
    """The load grid of the scenario's curve (None when no sweep is asked).

    *Derived* grids are :func:`repro.core.sweep.figure3_grid` over
    ``sweep_points`` and ``sweep_fraction``.  *Explicit* grids
    (``scenario.flit_loads``) are the caller's to choose and are evaluated
    exactly as given — a grid containing ``0.0`` yields the exact
    zero-load latency, never the 2% floor (a regression test pins this
    policy).
    """
    if scenario.flit_loads is not None:
        return np.asarray(scenario.flit_loads, dtype=float)
    if scenario.sweep_points < 2:
        return None
    return figure3_grid(
        saturation_flit_load, scenario.sweep_points, scenario.sweep_fraction
    )


def _curve_metrics(curve: LatencyCurve) -> dict:
    return {
        "label": curve.label,
        "flit_loads": [float(x) for x in curve.flit_loads],
        "latencies": [float(y) for y in curve.latencies],
        "last_stable_load": float(curve.last_stable_load),
    }


def _saturation_metrics(sat: SaturationResult) -> dict:
    return {
        "injection_rate": sat.injection_rate,
        "flit_load": sat.flit_load,
        "lower_bound": sat.lower_bound,
        "upper_bound": sat.upper_bound,
    }


def _run_analytical(scenario: Scenario) -> tuple[dict, dict]:
    """Shared driver of the ``model``, ``batch`` and ``baseline`` backends."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    with trace_span("run/build", topology=scenario.topology):
        fam, params = _family_for(scenario)
        evaluator = _evaluator_for(scenario)
    timings["build_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace_span("run/saturation"):
        sat = saturation_injection_rate(evaluator, scenario.message_flits)
    timings["saturation_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace_span("run/evaluate", points=scenario.sweep_points):
        point = point_latency(evaluator, scenario.workload())
        grid = _grid_for(scenario, sat.flit_load)
        curve = None
        if grid is not None:
            curve = latency_sweep(
                evaluator,
                scenario.message_flits,
                grid,
                label=f"{scenario.backend} {scenario.message_flits}-flit",
            )
    timings["evaluate_s"] = time.perf_counter() - t0

    metrics = {
        "engine": "batch",
        "variant": _variant_label(evaluator),
        "family": {"name": fam.name, "params": dict(params)},
        "faults": _fault_provenance(scenario),
        "point": {"flit_load": scenario.flit_load, "latency": point},
        "saturation": _saturation_metrics(sat),
        "curve": _curve_metrics(curve) if curve is not None else None,
    }
    return metrics, timings


# --- the simulate backend -----------------------------------------------------------


def _run_simulate(scenario: Scenario) -> tuple[dict, dict]:
    """Independently seeded replication set at the scenario's operating point.

    Under a fault spec the simulators route the same
    :class:`~repro.faults.FaultedTopology` mask the analytical backends
    price, sampling the degraded workload (dead terminals removed), and the
    crosscheck prediction swaps to the degraded stage graph — so
    model-vs-simulation comparisons extend to degraded fabrics unchanged.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    with trace_span("run/build", topology=scenario.topology):
        fam, params = _family_for(scenario)
        spec = scenario.spec()
        topo = fam.topology(params)
        faults = scenario.fault_spec()
        fault_info = None
        sim_spec = spec
        if faults is not None:
            topo = FaultedTopology(topo, faults)
            fault_info = _fault_provenance(scenario, topo)
            sim_spec = degraded_spec(topo, spec)
        # The family's (degraded) model rides along as the crosscheck prediction.
        evaluator = fam.evaluator(
            params, spec, scenario.message_flits, faults=faults
        )
    timings["build_s"] = time.perf_counter() - t0

    workload = scenario.workload()
    config = scenario.sim_config()
    sim_cls = _SIMULATOR_CLASSES[scenario.simulator]
    traffic_factory = None
    if sim_spec is not None:
        def traffic_factory(seed: int) -> PoissonTraffic:
            return PoissonTraffic(
                scenario.num_processors, workload, seed=seed, spec=sim_spec
            )

    t0 = time.perf_counter()
    with trace_span("run/simulate", replications=scenario.replications):
        rep = run_replications(
            topo,
            workload,
            config,
            replications=scenario.replications,
            simulator_cls=sim_cls,
            keep_samples=False,
            traffic_factory=traffic_factory,
        )
    timings["simulate_s"] = time.perf_counter() - t0

    prediction = point_latency(evaluator, workload)
    metrics = {
        "engine": scenario.simulator,
        "family": {"name": fam.name, "params": dict(params)},
        "faults": fault_info,
        "point": {
            "flit_load": scenario.flit_load,
            "latency": rep.latency_mean,
            "latency_ci95": rep.latency_ci,
            "throughput": rep.delivered_flit_rate,
            "stable": rep.stable,
            "model_prediction": prediction,
        },
        "saturation": None,
        "curve": None,
        "replication_health": {
            "requested": scenario.replications,
            "completed": len(rep.results),
            "rescued": rep.rescued,
            "failures": [
                {"seed": f.seed, "attempts": f.attempts, "error": f.error}
                for f in rep.failures
            ],
        },
        "replications": [
            {
                "seed": r.config.seed,
                "latency_mean": r.latency_mean,
                "latency_std": r.latency_std,
                "throughput": r.delivered_flit_rate,
                "stable": r.stable,
                "tagged_delivered": r.tagged_delivered,
                "censored_tagged": r.censored_tagged,
            }
            for r in rep.results
        ],
    }
    return metrics, timings


_BACKENDS: dict[str, Callable[[Scenario], tuple[dict, dict]]] = {
    "model": _run_analytical,
    "batch": _run_analytical,
    "baseline": _run_analytical,
    "simulate": _run_simulate,
}
