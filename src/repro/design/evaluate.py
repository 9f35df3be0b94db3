"""Candidate evaluation: batch-engine metrics, memoized and fanned out.

Each candidate costs two model-side quantities:

* the mean latency at the requirement's demand point — a one-point
  ``latency_batch`` evaluation (:func:`point_latency`, which the Scenario
  backends share);
* the saturation flit load — the vectorized Eq. 26 bracket
  (:func:`~repro.core.throughput.saturation_injection_rate`, a handful of
  ``stability_batch`` solves), the same search ``repro run`` makes, so
  the explorer and a run of the same question agree bit for bit.

:func:`metrics_for` answers both the nominal question (``faults=None``)
and the degraded one (a :class:`~repro.faults.FaultSpec`) through one
path.  Results are *memoized* in two layers keyed by the model identity
``(family, params, message_flits, spec)`` and the fault set: the
saturation search and the zero-load limit are demand-independent and
cached once per model, while the demand-point latency is cached per
``(model, demand)``.  A fault set that partitions a candidate, or cannot
be drawn on it, is memoized as that verdict.  Candidates differing only
in buffer depth (a cost-model knob) share one evaluation, repeated
:func:`~repro.design.search.explore` calls over overlapping spaces only
pay for the new points, and re-exploring the same space at a *different*
demand re-runs only the cheap single-point latency solves — never the
saturation ladders.  Uncached work fans out across worker processes
through :func:`~repro.util.parallel.parallel_map`; the parent merges the
returned metrics back into the caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..config import Workload
from ..core.throughput import saturation_injection_rate
from ..errors import ConfigurationError, PartitionedNetworkError, SaturatedError
from ..obs.metrics import METRICS
from ..util.parallel import parallel_map
from .cost import CostBreakdown
from .families import Hardware, design_family
from .space import Candidate

__all__ = [
    "CandidateMetrics",
    "Evaluation",
    "evaluate_candidate",
    "metrics_for",
    "clear_metrics_cache",
    "metrics_cache_size",
]


@dataclass(frozen=True)
class CandidateMetrics:
    """Model-side performance of one candidate at one demand point.

    ``latency`` is the mean latency (cycles) at the demand flit load
    (``inf`` past saturation); ``saturation_flit_load`` the Eq. 26 boundary
    in flits/cycle/PE; ``zero_load_latency`` the contention-free limit.
    """

    latency: float
    zero_load_latency: float
    saturation_flit_load: float

    def headroom(self, demand_flit_load: float) -> float:
        """Saturation load over demand (>= 1 means the demand is inside)."""
        return self.saturation_flit_load / demand_flit_load

    def as_json(self) -> dict:
        """JSON-safe dict (non-finite floats become None)."""
        return {
            "latency": self.latency if math.isfinite(self.latency) else None,
            "zero_load_latency": (
                self.zero_load_latency
                if math.isfinite(self.zero_load_latency)
                else None
            ),
            "saturation_flit_load": (
                self.saturation_flit_load
                if math.isfinite(self.saturation_flit_load)
                else None
            ),
        }


#: What :func:`metrics_for` answers per candidate: its metrics, or — for a
#: fault set only — None when the faults partition its network and the
#: :class:`ConfigurationError` message when they cannot be drawn on it.
Answer = Union[CandidateMetrics, str, None]


def _model_key(candidate: Candidate):
    # buffer_depth deliberately excluded: it never enters the latency model.
    return (
        candidate.family,
        candidate.params,
        candidate.message_flits,
        candidate.spec,
    )


def _metrics_key(candidate: Candidate, demand_flit_load: float):
    return (_model_key(candidate), demand_flit_load)


#: Demand-independent memo: (model key, faults) -> (zero_load_latency,
#: saturation), or the partition / impossible-draw verdict of an
#: :data:`Answer`.  ``faults=None`` is the nominal question.
_SATURATION_CACHE: dict[tuple, tuple[float, float] | str | None] = {}
#: Demand-dependent memo: ((model key, faults), demand) -> latency.
_LATENCY_CACHE: dict[tuple, float] = {}


def clear_metrics_cache() -> None:
    """Drop every memoized evaluation (tests and long-lived services)."""
    _SATURATION_CACHE.clear()
    _LATENCY_CACHE.clear()


def metrics_cache_size() -> int:
    """Number of memoized ``(model, faults, demand)`` latency evaluations."""
    return len(_LATENCY_CACHE)


def point_latency(model, workload: Workload) -> float:
    """Mean latency at one operating point: a one-element batched solve."""
    rates = np.array([workload.injection_rate])
    return float(model.latency_batch(rates, workload.message_flits)[0])


def _saturation_flit_load(model, message_flits: int) -> float:
    """Eq. 26 saturation load: the search ``repro run`` makes."""
    try:
        return saturation_injection_rate(model, message_flits).flit_load
    except SaturatedError:
        # Unstable at every probed rate: no usable operating range.
        return 0.0


def _check_demand(demand_flit_load: float) -> None:
    if not (demand_flit_load > 0.0) or not math.isfinite(demand_flit_load):
        raise ConfigurationError(
            f"demand_flit_load must be positive and finite, got {demand_flit_load!r}"
        )


def compute_metrics(
    candidate: Candidate,
    demand_flit_load: float,
    need_saturation: bool = True,
    faults=None,
) -> Answer:
    """Evaluate one candidate from scratch (no cache interaction).

    ``need_saturation=False`` skips the (comparatively expensive) Eq. 26
    search and reports ``nan`` for the demand-independent fields — the
    memo layer uses this when only the latency at a new demand is missing.
    Under ``faults`` the answer may be a verdict instead (see
    :data:`Answer`).
    """
    _check_demand(demand_flit_load)
    fam = design_family(candidate.family)
    flits = candidate.message_flits
    try:
        model = fam.evaluator(
            candidate.params_dict, candidate.spec, flits, faults=faults
        )
    except PartitionedNetworkError:
        return None
    except ConfigurationError as exc:
        if faults is None:
            raise
        return str(exc)
    return CandidateMetrics(
        latency=point_latency(
            model, Workload.from_flit_load(demand_flit_load, flits)
        ),
        zero_load_latency=(
            float(flits) + model.average_distance - 1.0
            if need_saturation
            else math.nan
        ),
        saturation_flit_load=(
            _saturation_flit_load(model, flits) if need_saturation else math.nan
        ),
    )


def _metrics_worker(task: tuple) -> Answer:
    """Module-level worker so tasks pickle for process fan-out."""
    return compute_metrics(*task)


def metrics_for(
    candidates: Sequence[Candidate],
    demand_flit_load: float,
    *,
    faults=None,
    processes: int = 1,
    chunksize: int = 1,
) -> dict[tuple, Answer]:
    """Metrics for every candidate, memoized, computed in parallel.

    ``faults=None`` asks the nominal question; a hashable
    :class:`~repro.faults.FaultSpec` asks the degraded one, whose answer
    is None where the faults partition a candidate and the reason where
    they cannot be drawn on it.  Deduplicates by model key (candidates
    differing only in buffer depth collapse to one evaluation), fans the
    uncached work out over ``processes`` workers — skipping the
    saturation search for models whose demand-independent half is
    already cached — merges the results into the per-process caches, and
    returns a ``{key: answer}`` mapping covering all inputs; read it back
    through :func:`_metrics_key`.  The nominal pass counts
    ``design.cache.*`` and ``design.solves``, a degraded one
    ``design.fault_cache.*``.
    """
    _check_demand(demand_flit_load)
    counter = "design.cache" if faults is None else "design.fault_cache"
    fresh: dict[tuple, tuple[Candidate, bool]] = {}
    for c in candidates:
        mk = (_model_key(c), faults)
        need_saturation = mk not in _SATURATION_CACHE
        need_latency = (mk, demand_flit_load) not in _LATENCY_CACHE and (
            need_saturation or isinstance(_SATURATION_CACHE[mk], tuple)
        )
        if (need_saturation or need_latency) and mk not in fresh:
            fresh[mk] = (c, need_saturation)
            METRICS.add(f"{counter}.misses")
        else:
            # Either fully memoized or deduplicated onto an already
            # scheduled model key (buffer-depth-only twins).
            METRICS.add(f"{counter}.hits")
    if fresh:
        tasks = [(c, demand_flit_load, sat, faults) for c, sat in fresh.values()]
        if faults is None:
            METRICS.add("design.solves", float(len(tasks)))
        results = parallel_map(
            _metrics_worker, tasks, processes=processes, chunksize=chunksize
        )
        for (mk, (_, need_saturation)), answer in zip(fresh.items(), results):
            if not isinstance(answer, CandidateMetrics):
                _SATURATION_CACHE[mk] = answer
                continue
            _LATENCY_CACHE[(mk, demand_flit_load)] = answer.latency
            if need_saturation:
                _SATURATION_CACHE[mk] = (
                    answer.zero_load_latency,
                    answer.saturation_flit_load,
                )
    if METRICS.enabled:
        METRICS.gauge("design.cache.latency_entries", float(len(_LATENCY_CACHE)))
        METRICS.gauge(
            "design.cache.saturation_entries", float(len(_SATURATION_CACHE))
        )
    out: dict[tuple, Answer] = {}
    for c in candidates:
        mk = (_model_key(c), faults)
        cached = _SATURATION_CACHE[mk]
        out[_metrics_key(c, demand_flit_load)] = (
            CandidateMetrics(
                latency=_LATENCY_CACHE[(mk, demand_flit_load)],
                zero_load_latency=cached[0],
                saturation_flit_load=cached[1],
            )
            if isinstance(cached, tuple)
            else cached
        )
    return out


@dataclass(frozen=True)
class Evaluation:
    """One candidate joined with its metrics, hardware, cost and verdict.

    ``headroom`` is demand-relative (saturation load over the requirement's
    demand load) and is attached by the search so the record stays
    self-contained.
    """

    candidate: Candidate
    metrics: CandidateMetrics
    hardware: Hardware
    cost: CostBreakdown
    headroom: float
    violations: tuple[str, ...]
    #: Degraded-mode metrics when the requirements asked for fault
    #: survival (``survives_faults > 0``): None either when no fault check
    #: ran or when the seeded failures partition this candidate or cannot
    #: be drawn on it (the violations then carry the reason).
    degraded: CandidateMetrics | None = None

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def latency(self) -> float:
        return self.metrics.latency

    @property
    def saturation_flit_load(self) -> float:
        return self.metrics.saturation_flit_load

    def as_json(self) -> dict:
        """JSON-safe record (non-finite floats become None)."""

        def num(x: float):
            return float(x) if math.isfinite(x) else None

        return {
            "family": self.candidate.family,
            "params": dict(self.candidate.params),
            "num_processors": self.candidate.num_processors,
            "message_flits": self.candidate.message_flits,
            "pattern": self.candidate.pattern,
            "buffer_depth": self.candidate.buffer_depth,
            **self.metrics.as_json(),
            "headroom": num(self.headroom),
            "hardware": {
                "switches": self.hardware.switches,
                "links": self.hardware.links,
                "ports": self.hardware.ports,
            },
            "cost": self.cost.as_dict(),
            "feasible": self.feasible,
            "violations": list(self.violations),
            "degraded": None if self.degraded is None else self.degraded.as_json(),
        }


def evaluate_candidate(
    candidate: Candidate, demand_flit_load: float
) -> CandidateMetrics:
    """Memoized metrics of one candidate (single-point convenience API)."""
    metrics = metrics_for([candidate], demand_flit_load)[
        _metrics_key(candidate, demand_flit_load)
    ]
    assert isinstance(metrics, CandidateMetrics)  # nominal: never a verdict
    return metrics
