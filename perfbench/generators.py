"""Seeded input generators: one per workload.

Everything a workload feeds the program comes from here, drawn from
``numpy.random.default_rng(seed)``: the same seed gives the same op
sequence.  Operating loads come from fixed tables written below, never
from the program's own answers.  Each generator mixes its op classes in
fixed proportions inside blocks (only the order and the within-class
draws depend on the seed), so runs on different seeds do the same amount
of work and their timings can be compared.

The op count follows ``--seconds`` through a nominal cost per op, so a
run always executes whole blocks of the same sequence instead of
whatever prefix a time-boxed loop happens to reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MESSAGE_FLITS = (8, 16, 32, 64, 128)

#: Machine sizes per topology family for the closed-form workload.
CLOSED_FORM_SIZES = {
    "bft": (16, 64, 256, 1024, 4096),
    "hypercube": (16, 64, 256),
    "kary-ncube": (16, 64, 256),
    "generalized-fattree": (16, 64, 256),
}

#: Operating flit loads (flits/cycle/PE) per (family, size): 10%, 25%,
#: 40%, 55% and 70% of the lowest saturation load over every message
#: length and over the paper model and its prior-art baseline.
OPERATING_LOADS = {
    ("bft", 16): (0.026, 0.065, 0.104, 0.143, 0.182),
    ("bft", 64): (0.012, 0.030, 0.048, 0.066, 0.084),
    ("bft", 256): (0.0057, 0.0143, 0.0228, 0.0314, 0.0399),
    ("bft", 1024): (0.0028, 0.0070, 0.0111, 0.0153, 0.0195),
    ("bft", 4096): (0.00137, 0.00343, 0.00549, 0.00754, 0.0096),
    ("hypercube", 16): (0.0405, 0.101, 0.162, 0.223, 0.283),
    ("hypercube", 64): (0.0363, 0.0908, 0.145, 0.200, 0.254),
    ("hypercube", 256): (0.0326, 0.0815, 0.130, 0.179, 0.228),
    ("kary-ncube", 16): (0.0667, 0.167, 0.267, 0.367, 0.467),
    ("kary-ncube", 64): (0.0667, 0.167, 0.267, 0.367, 0.467),
    ("kary-ncube", 256): (0.0667, 0.167, 0.267, 0.367, 0.467),
    ("generalized-fattree", 16): (0.026, 0.065, 0.104, 0.143, 0.182),
    ("generalized-fattree", 64): (0.012, 0.030, 0.048, 0.066, 0.084),
    ("generalized-fattree", 256): (0.0057, 0.0143, 0.0228, 0.0314, 0.0399),
}

#: The closed-form op classes, (backend, with_curve), in fixed
#: proportions: 70% batch, 20% model, 10% baseline, half with curves.
CLOSED_FORM_CLASSES = (
    [("batch", False)] * 7
    + [("batch", True)] * 7
    + [("model", False)] * 2
    + [("model", True)] * 2
    + [("baseline", False)]
    + [("baseline", True)]
)
#: One block pairs every op class with every (family, size) once, so each
#: block, and so each run, holds the same mix whatever the seed.
CLOSED_FORM_BLOCK = tuple(
    (cls, (family, size))
    for cls in CLOSED_FORM_CLASSES
    for family, sizes in CLOSED_FORM_SIZES.items()
    for size in sizes
)
#: Nominal seconds per closed-form op (sets the op count from --seconds).
CLOSED_FORM_OP_S = 0.011


def op_count(seconds: float, per_op_s: float, block: int) -> int:
    """Ops a run of ``seconds`` executes: whole blocks once there is room."""
    n = max(1, round(seconds / per_op_s))
    if n >= block:
        n = block * round(n / block)
    return n


def closed_form_scenarios(seed: int, seconds: float) -> list[dict]:
    """Distinct uniform-traffic Scenario keyword sets for ``repro.run``."""
    rng = np.random.default_rng([seed, 1])
    n = op_count(seconds, CLOSED_FORM_OP_S, len(CLOSED_FORM_BLOCK))
    out: list[dict] = []
    seen: set[tuple] = set()
    while len(out) < n:
        for i in rng.permutation(len(CLOSED_FORM_BLOCK)):
            (backend, with_curve), (topology, size) = CLOSED_FORM_BLOCK[i]
            loads = OPERATING_LOADS[(topology, size)]
            kwargs = {
                "topology": topology,
                "num_processors": size,
                "message_flits": int(rng.choice(MESSAGE_FLITS)),
                # A jitter inside [0.9, 1) of a table load keeps every
                # scenario distinct without leaving the table's margin.
                "flit_load": round(
                    float(loads[rng.integers(len(loads))]) * float(rng.uniform(0.9, 1.0)), 9
                ),
                "backend": backend,
                "sweep_points": int(rng.integers(16, 65)) if with_curve else 0,
                "label": "perfbench",
            }
            key = tuple(sorted(kwargs.items()))
            if key in seen:
                continue
            seen.add(key)
            out.append(kwargs)
            if len(out) == n:
                break
    return out


# --- explore_faults ------------------------------------------------------------------

#: The explored design space (every call explores all of it).
EXPLORE_SPACE = {
    "bft": (16,),
    "hypercube": (16,),
    "generalized-fattree": (16, 64),
    "kary-ncube": (16, 64),
    "message_lengths": (16, 32),
    "patterns": ("uniform", "hotspot", "transpose"),
}
#: Demand loads (flits/cycle/PE) and latency SLOs (cycles) the
#: requirements draw from.
EXPLORE_DEMANDS = (0.005, 0.01, 0.02, 0.04)
EXPLORE_SLOS = (60.0, 90.0, 150.0, 250.0)
#: Fault seeds of the single random link failure.  Which link dies
#: decides whether a fabric partitions, which swings a call's cost
#: tenfold, so a run prices the table's first k failures in each of
#: ``EXPLORE_ROUNDS`` rounds (every failure once per round, with fresh
#: requirements); the --seed picks their order and the requirements.
#: Rounds are equally composed, so their median time is a steady
#: throughput figure.
EXPLORE_FAULT_SEEDS = tuple(range(101, 101 + 64))
EXPLORE_ROUNDS = 3
EXPLORE_OP_S = 1.1


@dataclass(frozen=True)
class ExploreCall:
    demand_flit_load: float
    latency_slo: float
    min_headroom: float
    fault_seed: int


def explore_faults_per_round(seconds: float) -> int:
    """The k failures each round prices (the round is the timing block)."""
    n = op_count(seconds, EXPLORE_OP_S, 1)
    return min(max(1, n // EXPLORE_ROUNDS), len(EXPLORE_FAULT_SEEDS))


def explore_calls(seed: int, seconds: float) -> list[ExploreCall]:
    rng = np.random.default_rng([seed, 2])
    k = explore_faults_per_round(seconds)
    rounds = min(EXPLORE_ROUNDS, op_count(seconds, EXPLORE_OP_S, 1))
    return [
        ExploreCall(
            demand_flit_load=float(rng.choice(EXPLORE_DEMANDS)),
            latency_slo=float(rng.choice(EXPLORE_SLOS)),
            min_headroom=float(rng.choice((1.0, 1.5, 2.0))),
            fault_seed=EXPLORE_FAULT_SEEDS[int(i)],
        )
        for _ in range(rounds)
        for i in rng.permutation(k)
    ]


# --- simulate_replicas -----------------------------------------------------------------

SIM_TOPOLOGIES = (("bft", 16), ("bft", 64), ("hypercube", 16), ("hypercube", 64))
SIM_PATTERNS = ("uniform", "transpose")
SIMULATORS = ("event", "flit", "buffered")
SIM_MESSAGE_FLITS = 16
#: Saturation flit loads of the 16-flit model per (family, size, pattern),
#: the base of the simulated operating points.
SIM_SATURATION = {
    ("bft", 16, "uniform"): 0.3242,
    ("bft", 16, "transpose"): 0.3485,
    ("bft", 64, "uniform"): 0.1599,
    ("bft", 64, "transpose"): 0.1641,
    ("hypercube", 16, "uniform"): 0.5333,
    ("hypercube", 16, "transpose"): 0.3353,
    ("hypercube", 64, "uniform"): 0.4807,
    ("hypercube", 64, "transpose"): 0.1597,
}
SIM_LOAD_FRACTIONS = (0.2, 0.3, 0.4, 0.5, 0.6)
SIM_WARMUP_CYCLES = 500.0
SIM_MEASURE_CYCLES = 1_500.0
SIM_REPLICATIONS = 3
#: Fixed replication seeds; the --seed picks among them per op.
SIM_SEEDS = (11, 23, 37, 41, 53, 67, 79, 83)
SIM_OP_S = 0.28
#: Every (topology, pattern, simulator) stratum, with its own load
#: fraction, so each block holds the same work whatever the seed.
SIM_STRATA = tuple(
    (topo, size, pattern, sim, SIM_LOAD_FRACTIONS[i % len(SIM_LOAD_FRACTIONS)])
    for i, ((topo, size), pattern, sim) in enumerate(
        (t, p, s) for t in SIM_TOPOLOGIES for p in SIM_PATTERNS for s in SIMULATORS
    )
)


def simulate_scenarios(seed: int, seconds: float) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    n = op_count(seconds, SIM_OP_S, len(SIM_STRATA))
    out: list[dict] = []
    while len(out) < n:
        for i in rng.permutation(len(SIM_STRATA)):
            topo, size, pattern, sim, fraction = SIM_STRATA[i]
            load = SIM_SATURATION[(topo, size, pattern)] * fraction
            out.append(
                {
                    "topology": topo,
                    "num_processors": size,
                    "message_flits": SIM_MESSAGE_FLITS,
                    "pattern": pattern,
                    "backend": "simulate",
                    "simulator": sim,
                    "flit_load": round(load * float(rng.uniform(0.95, 1.0)), 9),
                    "replications": SIM_REPLICATIONS,
                    "warmup_cycles": SIM_WARMUP_CYCLES,
                    "measure_cycles": SIM_MEASURE_CYCLES,
                    "seed": int(rng.choice(SIM_SEEDS)),
                    "sweep_points": 0,
                    "label": "perfbench",
                }
            )
            if len(out) == n:
                break
    return out


# --- serve_mixed -------------------------------------------------------------------------

#: Request rates (1/s) of the open-loop ladder, lightest first, the share
#: of the run each step takes, the step whose median is the reported
#: ``latency_p50_ms`` and the step whose latency is reported as "heavy"
#: (about two thirds of the knee measured when the ladder was fixed).
#: The median is taken below the knee but not at the lightest rate: at
#: 50/s the cores idle between requests, and how long the host takes to
#: wake them moved that median by a sixth between runs minutes apart,
#: twice as much as at 150/s.  The rest of the run is a closed-loop
#: capacity phase.  The run walks the whole ladder, then a capacity
#: chunk, ``SERVE_WINDOWS`` times over, so a few seconds of host
#: contention land in one window of each figure rather than in all of it.
SERVE_WINDOWS = 4
SERVE_RATES = (50.0, 150.0, 250.0, 350.0)
SERVE_STEP_SHARES = (0.14, 0.28, 0.14, 0.14)
SERVE_P50_RATE = 150.0
SERVE_HEAVY_RATE = 250.0
SERVE_CAPACITY_SHARE = 0.3
#: Requests the capacity phase sends per second of its share: about the
#: hit-path capacity of a two-core host (800-1200/s), so the phase lasts
#: about its share of the run.
SERVE_CAPACITY_RATE = 1000.0
#: Cheap analytic scenarios the Zipf key distribution ranges over.
SERVE_CATALOG_SIZE = 64
SERVE_ZIPF_S = 1.1
#: Share of requests that ask a never-seen scenario (a miss), and of
#: those, the share sent as a duplicate pair so the two coalesce.
SERVE_MISS_SHARE = 0.05
SERVE_PAIR_SHARE = 0.3
#: Records the temp registry is seeded with before the server starts.
SERVE_SEED_RECORDS = 10_000


def _serve_scenario(rng: np.random.Generator, index: int) -> dict:
    topology = ("bft", "hypercube", "kary-ncube", "generalized-fattree")[index % 4]
    size = (16, 64)[int(rng.integers(2))]
    loads = OPERATING_LOADS[(topology, size)]
    return {
        "topology": topology,
        "num_processors": size,
        "message_flits": int(rng.choice((8, 16, 32))),
        "flit_load": round(float(loads[rng.integers(3)]) * float(rng.uniform(0.9, 1.0)), 9),
        "backend": "batch",
        "sweep_points": 0,
        "label": "perfbench",
    }


def serve_catalog(seed: int) -> list[dict]:
    """The hit catalog: solved once at set-up, then requested by Zipf rank."""
    rng = np.random.default_rng([seed, 4])
    catalog, seen = [], set()
    while len(catalog) < SERVE_CATALOG_SIZE:
        sc = _serve_scenario(rng, len(catalog))
        key = tuple(sorted(sc.items()))
        if key not in seen:
            seen.add(key)
            catalog.append(sc)
    return catalog


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the window starts (0 in the closed loop)
    scenario: dict
    kind: str  # "hit" or "miss"
    step: int  # ladder step index; len(SERVE_RATES) is the capacity phase
    window: int  # which pass over the ladder


class _Mix:
    """Seeded request mix: Zipf-ranked catalog hits and never-seen misses."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 5])
        self.catalog = serve_catalog(seed)
        weights = 1.0 / np.arange(1, len(self.catalog) + 1) ** SERVE_ZIPF_S
        self.weights = weights / weights.sum()
        self.misses = 0

    def draw(self, due: float, step: int, window: int, misses: bool) -> list[Request]:
        rng = self.rng
        if misses and rng.random() < SERVE_MISS_SHARE:
            sc = _serve_scenario(rng, self.misses)
            # Misses are never-seen questions: the operating load carries
            # a unique tag far below every table load's resolution.
            sc["flit_load"] = round(sc["flit_load"] + 1e-7 * (self.misses + 1), 9)
            self.misses += 1
            copies = 2 if rng.random() < SERVE_PAIR_SHARE else 1
            return [Request(due, sc, "miss", step, window)] * copies
        sc = self.catalog[int(rng.choice(len(self.catalog), p=self.weights))]
        return [Request(due, sc, "hit", step, window)]


def serve_schedule(seed: int, seconds: float) -> list[Request]:
    """Every request of a serve run, window by window: the open-loop
    Poisson ladder (due times relative to each window's start), then a
    chunk of the closed-loop phase.

    The closed loop asks only catalog scenarios: its figure is the
    capacity of the hit path, which a seeded handful of misses of uneven
    solve cost would otherwise move by a fifth from seed to seed.
    """
    mix = _Mix(seed)
    requests: list[Request] = []
    capacity = len(SERVE_RATES)
    chunk = round(SERVE_CAPACITY_RATE * SERVE_CAPACITY_SHARE * seconds / SERVE_WINDOWS)
    for window in range(SERVE_WINDOWS):
        for step, (rate, share) in enumerate(zip(SERVE_RATES, SERVE_STEP_SHARES)):
            t = float(mix.rng.exponential(1.0 / rate))
            while t < share * seconds / SERVE_WINDOWS:
                requests.extend(mix.draw(t, step, window, misses=True))
                t += float(mix.rng.exponential(1.0 / rate))
        for _ in range(chunk):
            requests.extend(mix.draw(0.0, capacity, window, misses=False))
    return requests
