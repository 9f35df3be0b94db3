"""Unified Scenario→Run API with a persistent run registry.

This package is the library's front door: declare *what* you want to know
as a :class:`Scenario` (topology × workload × traffic pattern ×
``backend``), call :func:`run`, and receive a typed, schema-versioned
:class:`RunResult` — the same record shape whether the answer came from
the analytical model's batch engine, a simulator replication set, or
the prior-art baseline.  A :class:`RunRegistry`
persists the records as append-only JSON lines so sweeps, saturation
searches, replication sets, and benchmark baselines accumulate into one
diffable trajectory across sessions and PRs.

>>> from repro.runs import RunRegistry, Scenario, run
>>> sc = Scenario(num_processors=64, message_flits=16, backend="batch")
>>> r = run(sc)                       # latency point + curve + saturation
>>> r == type(r).from_json(r.to_json())
True
>>> sim = run(sc.with_backend("simulate"))   # same question, measured

CLI equivalents: ``repro run``, ``repro runs list``, ``repro runs diff``.
"""

from .backends import backend_names, execute
from .index import RunIndex
from .registry import (
    MetricDelta,
    RunDiff,
    RunRegistry,
    default_registry_dir,
    diff_metrics,
    flatten_leaves,
    flatten_metrics,
)
from .result import SCHEMA_VERSION, RunResult, json_restore, json_safe
from .runner import Runner, provenance_stamp, run
from .scenario import BACKENDS, SIMULATORS, TOPOLOGIES, Scenario, scenario_key
from .stats import StatsReport, collect_stats

__all__ = [
    "BACKENDS",
    "SCHEMA_VERSION",
    "SIMULATORS",
    "TOPOLOGIES",
    "MetricDelta",
    "RunDiff",
    "RunIndex",
    "RunRegistry",
    "RunResult",
    "Runner",
    "Scenario",
    "StatsReport",
    "backend_names",
    "collect_stats",
    "default_registry_dir",
    "diff_metrics",
    "execute",
    "flatten_leaves",
    "flatten_metrics",
    "json_restore",
    "json_safe",
    "provenance_stamp",
    "run",
    "scenario_key",
]
