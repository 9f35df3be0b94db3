"""repro — wormhole-routed network performance models and simulators.

A faithful, tested reproduction of:

    Ronald I. Greenberg and Lee Guan, "An Improved Analytical Model for
    Wormhole Routed Networks with Application to Butterfly Fat-Trees",
    Proc. 1997 International Conference on Parallel Processing (ICPP),
    pages 44-48, IEEE Computer Society Press, August 1997.

Quickstart — the Scenario→Run facade
------------------------------------
State the question once as a declarative :class:`Scenario`; the
``backend`` field selects how it is answered (``batch`` — the paper's
model through the vectorized engine, ``model`` — an alias of ``batch``,
``simulate`` — a replication set of discrete-event runs, ``baseline`` —
the prior-art model variant):

>>> from repro import Scenario, run
>>> sc = Scenario(num_processors=256, message_flits=32, flit_load=0.02)
>>> r = run(sc)                                # backend="batch" default
>>> r.metrics["point"]["latency"] > 0
True
>>> sim = run(sc.with_backend("simulate"))     # same question, measured

Every answer is a schema-versioned :class:`RunResult` with a lossless
JSON round-trip; a :class:`RunRegistry` persists them as append-only
JSON lines for cross-session queries and diffs (CLI: ``repro run``,
``repro runs list``, ``repro runs diff``).

The lower-level engines remain available for advanced use (model
classes, stage graphs, simulators, the design-space explorer).  The
sweep, saturation, replication and exploration functions live in their
home modules (``repro.core``, ``repro.simulation``, ``repro.design``);
the top-level aliases deprecated in 2.0.0 were removed in 3.0.0 (see the
migration table in README.md).

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
reproduction of every table and figure in the paper's evaluation.
"""

from .config import SimConfig, Workload
from .core import (
    BatchSolution,
    BftSolution,
    ButterflyFatTreeModel,
    ChannelGraphModel,
    EntryPoint,
    GeneralizedFatTreeModel,
    LatencyCurve,
    ModelVariant,
    SaturationResult,
    Stage,
    Transition,
    bft_stage_graph,
    generalized_fattree_stage_graph,
    hypercube_stage_graph,
)
from .design import (
    DesignSpace,
    ExplorationResult,
    FamilySpace,
    LinearCostModel,
    Requirements,
    bft_space,
    generalized_fattree_space,
    hypercube_space,
    kary_ncube_space,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    RegistryError,
    ReproError,
    RoutingError,
    SaturatedError,
    SchemaVersionError,
    SimulationError,
    TopologyError,
)
from .runs import (
    SCHEMA_VERSION,
    RunRegistry,
    RunResult,
    Runner,
    Scenario,
    run,
)
from .simulation import (
    BufferedWormholeSimulator,
    EventDrivenWormholeSimulator,
    FlitLevelWormholeSimulator,
    PoissonTraffic,
    SimulationResult,
    TraceTraffic,
    empirical_saturation,
    simulate,
    simulate_buffered,
    simulate_flit_level,
)
from .topology import (
    ButterflyFatTree,
    GeneralizedFatTree,
    Hypercube,
    KaryNCube,
    bft_average_distance,
    bft_nca_level,
)
from .traffic import (
    BitComplementSpec,
    BitReversalSpec,
    BurstyArrivals,
    HotspotSpec,
    PermutationSpec,
    QuadLocalSpec,
    TornadoSpec,
    TrafficSpec,
    TransposeSpec,
    UniformSpec,
    available_patterns,
    make_spec,
    pattern_descriptions,
)

__version__ = "7.0.0"

__all__ = [
    "SimConfig",
    "Workload",
    # Scenario→Run facade and registry
    "Scenario",
    "Runner",
    "run",
    "RunResult",
    "RunRegistry",
    "SCHEMA_VERSION",
    # analytical models and engines
    "BatchSolution",
    "BftSolution",
    "ButterflyFatTreeModel",
    "ChannelGraphModel",
    "EntryPoint",
    "LatencyCurve",
    "ModelVariant",
    "SaturationResult",
    "Stage",
    "Transition",
    "bft_stage_graph",
    "generalized_fattree_stage_graph",
    "hypercube_stage_graph",
    # design-space exploration
    "DesignSpace",
    "ExplorationResult",
    "FamilySpace",
    "LinearCostModel",
    "Requirements",
    "bft_space",
    "generalized_fattree_space",
    "hypercube_space",
    "kary_ncube_space",
    # errors
    "ConfigurationError",
    "ConvergenceError",
    "RegistryError",
    "ReproError",
    "RoutingError",
    "SaturatedError",
    "SchemaVersionError",
    "SimulationError",
    "TopologyError",
    # topologies
    "ButterflyFatTree",
    "GeneralizedFatTree",
    "GeneralizedFatTreeModel",
    "Hypercube",
    "KaryNCube",
    "bft_average_distance",
    "bft_nca_level",
    # traffic scenarios
    "BitComplementSpec",
    "BitReversalSpec",
    "BurstyArrivals",
    "HotspotSpec",
    "PermutationSpec",
    "QuadLocalSpec",
    "TornadoSpec",
    "TrafficSpec",
    "TransposeSpec",
    "UniformSpec",
    "available_patterns",
    "make_spec",
    "pattern_descriptions",
    # simulators
    "BufferedWormholeSimulator",
    "EventDrivenWormholeSimulator",
    "FlitLevelWormholeSimulator",
    "simulate_buffered",
    "PoissonTraffic",
    "SimulationResult",
    "TraceTraffic",
    "empirical_saturation",
    "simulate",
    "simulate_flit_level",
    "__version__",
]
