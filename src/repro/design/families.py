"""Topology families the design-space explorer can instantiate.

A :class:`DesignFamily` bundles everything the search driver needs to know
about one network family:

* which structural parameters describe a member (``param_names``) and how
  to validate a concrete assignment;
* how large the machine is (``num_processors``);
* how much hardware a member uses (``hardware`` — switch / link / port
  counts, read off the constructed topology so the cost models and the
  simulators always agree on what was built);
* which analytical model answers a question about a member — one
  resolver, :meth:`DesignFamily.evaluator`, for every (traffic pattern,
  fault set, paper-or-prior-art) combination the Scenario facade's
  backends and the explorer ask.

Each family declares only three things: its uniform fault-free model
built for a given variant (:meth:`DesignFamily.uniform_model`), its
prior-art variant (:meth:`DesignFamily.prior_art_variant`) and its
fault-free flow tracer (:attr:`DesignFamily.flow_tracer`).  Every other
question — a non-uniform pattern, any fault set — is answered by the
Section 2 stage graph of the traced flows
(:meth:`DesignFamily.flows` then
:func:`~repro.traffic.analytic.stage_graph_from_flows`).

Four families ship by default:

* ``bft`` — the paper's 4-2 butterfly fat-tree
  (:class:`~repro.core.bft_model.ButterflyFatTreeModel`), pattern-aware
  through :func:`~repro.traffic.flows.bft_channel_flows`;
* ``generalized-fattree`` — the (children, parents) generalization
  (:class:`~repro.core.generalized_model.GeneralizedFatTreeModel`),
  uniform traffic only;
* ``hypercube`` — the Section 2 general model on a binary e-cube hypercube
  (:func:`~repro.core.generic_model.hypercube_stage_graph`), pattern-aware
  through :func:`~repro.traffic.flows.single_path_flows`;
* ``kary-ncube`` — the Dally torus baseline
  (:class:`~repro.baselines.dally.DallyKaryNCubeModel`), uniform traffic
  only.

``register_family`` admits project-specific families without touching this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from ..config import Workload
from ..errors import ConfigurationError, PartitionedNetworkError
from ..obs.metrics import METRICS
from ..util.validation import check_power_of

__all__ = [
    "Hardware",
    "DesignFamily",
    "register_family",
    "design_family",
    "available_families",
]


@dataclass(frozen=True)
class Hardware:
    """Hardware inventory of one candidate network.

    ``switches`` counts routing nodes, ``links`` unidirectional channels
    (injection and ejection channels included, matching the topology
    objects), and ``ports`` switch-side link endpoints — each
    switch-to-switch channel occupies two ports, each injection or
    ejection channel one.  These are the quantities Solnushkin-style cost
    models price.
    """

    switches: int
    links: int
    ports: int


def _hardware_of(topology) -> Hardware:
    """Read the inventory off a constructed topology object."""
    n = topology.num_processors
    return Hardware(
        switches=topology.num_nodes - n,
        links=topology.num_links,
        # Every link endpoint that lands on a switch is a port; the 2*N
        # PE-side endpoints of the injection/ejection channels are not.
        ports=2 * topology.num_links - 2 * n,
    )


class DesignFamily:
    """One searchable topology family (see module docstring).

    Subclasses set :attr:`name`, :attr:`param_names`,
    :attr:`supports_patterns` and :attr:`flow_tracer`, and implement
    :meth:`num_processors`, :meth:`topology`, :meth:`uniform_model` and
    :meth:`sizes_to_params` (plus :meth:`prior_art_variant` when the prior
    art is not the naive variant).  ``params`` is always a plain
    ``{name: int}`` mapping covering exactly ``param_names``.
    """

    name: str = "base"
    param_names: tuple[str, ...] = ()
    #: Whether non-uniform TrafficSpecs have a pattern-aware evaluator.
    supports_patterns: bool = False
    #: The fault-free tracer in :mod:`repro.traffic.flows`, by name: it is
    #: looked up when flows are traced, so wrappers installed on that
    #: module see every call.
    flow_tracer: str = "masked_channel_flows"

    def validate(self, params: Mapping[str, int]) -> None:
        """Raise :class:`ConfigurationError` for an invalid assignment."""
        missing = [p for p in self.param_names if p not in params]
        extra = [p for p in params if p not in self.param_names]
        if missing or extra:
            raise ConfigurationError(
                f"family {self.name!r} takes parameters {self.param_names}, "
                f"got {tuple(sorted(params))}"
            )
        for p in self.param_names:
            if not isinstance(params[p], int):
                raise ConfigurationError(
                    f"family {self.name!r}: parameter {p!r} must be an "
                    f"integer, got {params[p]!r}"
                )

    def num_processors(self, params: Mapping[str, int]) -> int:
        """Machine size of the assignment (validates first)."""
        raise NotImplementedError

    def topology(self, params: Mapping[str, int]):
        """Construct the concrete topology object (hardware accounting)."""
        raise NotImplementedError

    def uniform_model(self, params: Mapping[str, int], message_flits: int, variant):
        """The family's fault-free uniform-traffic model under ``variant``.

        ``variant`` is None for the paper's model, otherwise the
        :meth:`prior_art_variant`.
        """
        raise NotImplementedError

    def prior_art_variant(self):
        """The model variant of this family's prior art (the ``baseline``
        backend): the naive variant unless a family overrides it; None
        when the family's own model *is* its prior art."""
        from ..core.variants import ModelVariant

        return ModelVariant.naive()

    def flows(self, params: Mapping[str, int], spec=None, faults=None):
        """Trace the per-channel flows of ``spec`` (None = uniform).

        Fault-free flows come from the family's :attr:`flow_tracer`; under
        a :class:`~repro.faults.FaultSpec` the fault-masked topology is
        traced with :func:`~repro.traffic.flows.masked_channel_flows`
        under the :func:`~repro.faults.degraded_spec` workload.  Uncached
        (callers may mutate the result); :meth:`evaluator` memoizes it.
        Each call counts one ``flows.traces``.  Raises
        :class:`~repro.errors.PartitionedNetworkError` when the faults
        disconnect surviving traffic.
        """
        from ..traffic import flows as traffic_flows
        from ..traffic.spec import UniformSpec

        self.validate(params)
        if not self.supports_patterns:
            self._reject_pattern(spec)
        METRICS.add("flows.traces")
        topology = self.topology(params)
        if faults is None:
            tracer = getattr(traffic_flows, self.flow_tracer)
            return tracer(topology, spec if spec is not None else UniformSpec())
        from ..faults import FaultedTopology, degraded_spec

        topology = FaultedTopology(topology, faults)
        return traffic_flows.masked_channel_flows(
            topology, degraded_spec(topology, spec)
        )

    def evaluator(
        self,
        params: Mapping[str, int],
        spec,
        message_flits: int,
        *,
        faults=None,
        baseline: bool = False,
    ):
        """The analytical model answering one question about a member.

        Uniform fault-free traffic gets :meth:`uniform_model` (a fault
        spec that kills nothing counts as fault-free); any other pattern
        or any fault set gets the Section 2 stage graph of the
        traced :meth:`flows`, built at the reference rate
        ``1 / (100 F)``.  ``baseline`` switches in the
        :meth:`prior_art_variant`.  Flows are memoized per
        (assignment, spec) and, separately, per (assignment, spec,
        faults) — a partition verdict included — so ``spec`` and
        ``faults`` must be hashable.  Raises
        :class:`ConfigurationError` for a pattern on a family without a
        pattern-aware model, and
        :class:`~repro.errors.PartitionedNetworkError` when the faults
        disconnect surviving traffic.
        """
        from ..traffic.analytic import stage_graph_from_flows

        self.validate(params)
        variant = self.prior_art_variant() if baseline else None
        if spec is not None and spec.name == "uniform":
            spec = None  # canonical cache key; the tracers default to uniform
        if faults is not None and faults.is_trivial():
            faults = None  # a spec that kills nothing is the nominal question
        if spec is None and faults is None:
            return self.uniform_model(params, message_flits, variant)
        key = (self.name, tuple(sorted(params.items())), spec)
        if faults is None:
            flows = _cached_flows(*key)
        else:
            flows = _cached_masked_flows(*key, faults)
            if isinstance(flows, str):
                # A fresh exception per ask: re-raising one shared
                # instance would grow its traceback on every raise.
                raise PartitionedNetworkError(flows)
        return stage_graph_from_flows(
            flows, _reference_workload(message_flits), variant
        )

    def hardware(self, params: Mapping[str, int]) -> Hardware:
        """Switch/link/port inventory (memoized per assignment)."""
        self.validate(params)
        return _cached_hardware(self.name, tuple(sorted(params.items())))

    def sizes_to_params(self, num_processors: int) -> dict[str, int] | None:
        """Parameter assignment realizing ``num_processors``, or None.

        Lets callers sweep an abstract machine-size axis across families
        (the CLI's ``--sizes``); families whose size grid does not contain
        the value return None.
        """
        raise NotImplementedError

    def _reject_pattern(self, spec) -> None:
        if spec is not None and spec.name != "uniform":
            raise ConfigurationError(
                f"family {self.name!r} has no pattern-aware model; "
                f"pattern {spec.name!r} is only supported on families "
                f"{tuple(f for f, fam in _REGISTRY.items() if fam.supports_patterns)}"
            )


@lru_cache(maxsize=256)
def _cached_hardware(family: str, params_items: tuple[tuple[str, int], ...]) -> Hardware:
    fam = design_family(family)
    return _hardware_of(fam.topology(dict(params_items)))


def _reference_workload(message_flits: int) -> Workload:
    """The (arbitrary) rate stage graphs are built at; rates scale linearly."""
    if not isinstance(message_flits, int) or message_flits <= 0:
        raise ConfigurationError("message_flits must be a positive integer")
    return Workload(message_flits, 1.0 / (100.0 * message_flits))


# Flow propagation (spec -> per-channel rates) is the dominant cost of a
# pattern-aware evaluation and is independent of message length, so the
# explorer caches ChannelFlows per (size, spec) — the message-length axis of
# a design space then reuses one propagation.  Fault-masked flows live in a
# cache of their own, so a stream of fault sets never evicts the fault-free
# entries.  That cache also remembers a partition: an lru_cache does not
# cache a raise, so the verdict is stored as the PartitionedNetworkError's
# message, and every later ask with the same (size, spec, faults) — at any
# message length, in any exploration, across clear_metrics_cache() — is
# answered without tracing again.  TrafficSpec and FaultSpec instances are
# frozen dataclasses, hence usable as cache keys.


@lru_cache(maxsize=128)
def _cached_flows(family: str, params_items: tuple[tuple[str, int], ...], spec):
    return design_family(family).flows(dict(params_items), spec)


@lru_cache(maxsize=64)
def _cached_masked_flows(
    family: str, params_items: tuple[tuple[str, int], ...], spec, faults
):
    """The masked flows, or the message of the partition they hit."""
    try:
        return design_family(family).flows(dict(params_items), spec, faults)
    except PartitionedNetworkError as exc:
        return str(exc)


class _BftFamily(DesignFamily):
    name = "bft"
    param_names = ("processors",)
    supports_patterns = True
    flow_tracer = "bft_channel_flows"

    def validate(self, params: Mapping[str, int]) -> None:
        super().validate(params)
        check_power_of("processors", params["processors"], 4)

    def num_processors(self, params: Mapping[str, int]) -> int:
        self.validate(params)
        return params["processors"]

    def topology(self, params: Mapping[str, int]):
        from ..topology.butterfly_fattree import ButterflyFatTree

        return ButterflyFatTree(params["processors"])

    def uniform_model(self, params: Mapping[str, int], message_flits: int, variant):
        from ..core.bft_model import ButterflyFatTreeModel

        return ButterflyFatTreeModel(params["processors"], variant)

    def sizes_to_params(self, num_processors: int) -> dict[str, int] | None:
        try:
            check_power_of("processors", num_processors, 4)
        except ConfigurationError:
            return None
        return {"processors": num_processors}


class _GeneralizedFatTreeFamily(DesignFamily):
    name = "generalized-fattree"
    param_names = ("children", "parents", "levels")
    supports_patterns = False

    def validate(self, params: Mapping[str, int]) -> None:
        super().validate(params)
        if params["children"] < 2:
            raise ConfigurationError("children must be >= 2")
        if params["parents"] < 1:
            raise ConfigurationError("parents must be >= 1")
        if params["levels"] < 1:
            raise ConfigurationError("levels must be >= 1")

    def num_processors(self, params: Mapping[str, int]) -> int:
        self.validate(params)
        return params["children"] ** params["levels"]

    def topology(self, params: Mapping[str, int]):
        from ..topology.generalized_fattree import GeneralizedFatTree

        return GeneralizedFatTree(
            params["children"], params["parents"], params["levels"]
        )

    def uniform_model(self, params: Mapping[str, int], message_flits: int, variant):
        from ..core.generalized_model import GeneralizedFatTreeModel

        return GeneralizedFatTreeModel(
            params["children"], params["parents"], params["levels"], variant
        )

    def sizes_to_params(self, num_processors: int) -> dict[str, int] | None:
        # The size axis alone does not pin (children, parents); families
        # with free arity are swept through explicit FamilySpace grids.
        return None


class _HypercubeFamily(DesignFamily):
    name = "hypercube"
    param_names = ("dimension",)
    supports_patterns = True
    flow_tracer = "single_path_flows"

    def validate(self, params: Mapping[str, int]) -> None:
        super().validate(params)
        if params["dimension"] < 1:
            raise ConfigurationError("dimension must be >= 1")

    def num_processors(self, params: Mapping[str, int]) -> int:
        self.validate(params)
        return 1 << params["dimension"]

    def topology(self, params: Mapping[str, int]):
        from ..topology.hypercube import Hypercube

        return Hypercube(params["dimension"])

    def uniform_model(self, params: Mapping[str, int], message_flits: int, variant):
        from ..core.generic_model import hypercube_stage_graph

        return hypercube_stage_graph(
            params["dimension"], _reference_workload(message_flits), variant
        )

    def prior_art_variant(self):
        from ..baselines.draper_ghosh import draper_ghosh_variant

        return draper_ghosh_variant()

    def sizes_to_params(self, num_processors: int) -> dict[str, int] | None:
        if num_processors < 2:
            return None
        d = num_processors.bit_length() - 1
        return {"dimension": d} if (1 << d) == num_processors else None


class _KaryNCubeFamily(DesignFamily):
    name = "kary-ncube"
    param_names = ("radix", "dimensions")
    supports_patterns = False

    def validate(self, params: Mapping[str, int]) -> None:
        super().validate(params)
        if params["radix"] < 2:
            raise ConfigurationError("radix must be >= 2")
        if params["dimensions"] < 1:
            raise ConfigurationError("dimensions must be >= 1")

    def num_processors(self, params: Mapping[str, int]) -> int:
        self.validate(params)
        return params["radix"] ** params["dimensions"]

    def topology(self, params: Mapping[str, int]):
        from ..topology.kary_ncube import KaryNCube

        return KaryNCube(params["radix"], params["dimensions"])

    def uniform_model(self, params: Mapping[str, int], message_flits: int, variant):
        from ..baselines.dally import DallyKaryNCubeModel

        return DallyKaryNCubeModel(params["radix"], params["dimensions"])

    def prior_art_variant(self):
        # Dally's analysis *is* the prior art for the torus: the family's
        # reference model and its baseline coincide (the repo carries no
        # improved Section-2 instantiation on rings yet — they need the
        # cyclic fixed point plus virtual-channel modeling, see ROADMAP).
        # Under faults both backends therefore keep the paper variant.
        return None

    def sizes_to_params(self, num_processors: int) -> dict[str, int] | None:
        # Free radix: like the generalized fat-tree, swept explicitly.
        return None


_REGISTRY: dict[str, DesignFamily] = {}


def register_family(family: DesignFamily) -> DesignFamily:
    """Add a family to the registry (keyed by ``family.name``).

    Every evaluator a family resolves must expose
    ``latency_batch(loads, message_flits)`` and
    ``stability_batch(loads, message_flits)``: the backends, the explorer
    and the Eq. 26 search answer through the batch engine only.
    """
    _REGISTRY[family.name] = family
    return family


for _fam in (
    _BftFamily(),
    _GeneralizedFatTreeFamily(),
    _HypercubeFamily(),
    _KaryNCubeFamily(),
):
    register_family(_fam)


def design_family(name: str) -> DesignFamily:
    """Look up a registered family by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown design family {name!r}; known: {', '.join(available_families())}"
        ) from None


def available_families() -> list[str]:
    """Registered family names (the CLI's ``--families`` choices)."""
    return sorted(_REGISTRY)
