"""Declarative scenarios: the one record that states a network question.

A :class:`Scenario` pins down *what* is being asked — topology, operating
point, message length, traffic pattern, and measurement protocol — while
the ``backend`` field selects *how* it is answered:

* ``batch``    — the paper's analytical model through the vectorized
  batch engine (one NumPy pass per curve);
* ``model``    — an alias of ``batch`` (answered by the same code; kept
  so existing scenario keys and stored records stay valid);
* ``simulate`` — a replication set of discrete-event simulations;
* ``baseline`` — the prior-art model variant (independent M/G/1 links,
  no blocking correction), for paper-style comparisons.

Because every field is a plain JSON-able value (no live model or
simulator objects), a scenario round-trips losslessly through
:meth:`Scenario.to_json` / :meth:`Scenario.from_json` and can be replayed
by any later session — the foundation the run registry builds on.

>>> from repro.runs import Scenario, run
>>> sc = Scenario(num_processors=64, message_flits=16, backend="batch")
>>> result = run(sc)
>>> result.metrics["saturation"]["flit_load"] > 0
True
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, cast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultSpec

from ..config import SimConfig, Workload
from ..errors import ConfigurationError
from ..traffic.spec import TrafficSpec, available_patterns, make_spec
from ..util.validation import exact_exponent

__all__ = ["BACKENDS", "SIMULATORS", "TOPOLOGIES", "Scenario", "scenario_key"]

#: Evaluation backends a scenario can dispatch to.
BACKENDS = ("model", "batch", "simulate", "baseline")

#: Simulator engines the ``simulate`` backend accepts.
SIMULATORS = ("event", "flit", "buffered")

#: Topology families the facade evaluates end to end — every family goes
#: through all four backends (the names double as design-family keys, see
#: :mod:`repro.design.families`).
TOPOLOGIES = ("bft", "generalized-fattree", "hypercube", "kary-ncube")

#: The scenario fields that carry per-family structural parameters, and
#: which of them each family accepts.  Fields a family does not accept
#: must stay ``None``; accepted ones are normalized eagerly (defaults
#: filled in, missing values derived from ``num_processors``) so the
#: JSON form is canonical and round-trips exactly.
FAMILY_PARAM_FIELDS = ("children", "parents", "levels", "dimension", "radix")
_FAMILY_FIELDS: dict[str, tuple[str, ...]] = {
    "bft": (),
    "generalized-fattree": ("children", "parents", "levels"),
    "hypercube": ("dimension",),
    "kary-ncube": ("radix",),
}


def _normalized_family_fields(scenario: "Scenario") -> dict[str, int | None]:
    """Resolve the per-family parameter fields of one scenario.

    Returns the canonical value of every field in
    :data:`FAMILY_PARAM_FIELDS`: ``None`` for fields the family does not
    accept (raising if the caller set one), defaults filled in and missing
    values derived from ``num_processors`` for the fields it does.
    """
    topology, n = scenario.topology, scenario.num_processors
    allowed = _FAMILY_FIELDS[topology]
    for name in FAMILY_PARAM_FIELDS:
        value = getattr(scenario, name)
        if value is None:
            continue
        if name not in allowed:
            raise ConfigurationError(
                f"parameter {name!r} does not apply to topology {topology!r} "
                f"(its parameters: {allowed or '()'})"
            )
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    out: dict[str, int | None] = {name: None for name in FAMILY_PARAM_FIELDS}
    if topology == "generalized-fattree":
        children = scenario.children if scenario.children is not None else 4
        parents = scenario.parents if scenario.parents is not None else 2
        levels = scenario.levels
        if levels is None:
            levels = exact_exponent(children, n)
            if levels is None:
                raise ConfigurationError(
                    f"num_processors={n} is not a power of children={children}; "
                    "give levels explicitly or pick a matching size"
                )
        elif children**levels != n:
            raise ConfigurationError(
                f"num_processors={n} != children**levels = {children}**{levels}"
            )
        out.update(children=children, parents=parents, levels=levels)
    elif topology == "hypercube":
        derived = exact_exponent(2, n)
        if derived is None:
            raise ConfigurationError(
                f"num_processors={n} is not a power of two (hypercube sizes are)"
            )
        if scenario.dimension is not None and scenario.dimension != derived:
            raise ConfigurationError(
                f"num_processors={n} != 2**dimension = 2**{scenario.dimension}"
            )
        out.update(dimension=derived)
    elif topology == "kary-ncube":
        radix = scenario.radix if scenario.radix is not None else 4
        if exact_exponent(radix, n) is None:
            raise ConfigurationError(
                f"num_processors={n} is not a power of radix={radix}; "
                "the torus needs num_processors = radix ** dimensions"
            )
        out.update(radix=radix)
    return out


#: Version prefix of :func:`scenario_key`.  Bump it whenever the key
#: derivation changes (fields added to the digest, canonicalization
#: altered), so stale cache entries miss instead of aliasing: a key is a
#: *content address* and two library generations must never produce the
#: same key for semantically different questions.
SCENARIO_KEY_VERSION = "sk1"


def scenario_key(scenario: "Scenario") -> str:
    """Content address of one scenario: what is asked, never who asked.

    The key is the sha256 of the canonical (sorted-key, separator-free)
    JSON form of the scenario with the free-form ``label`` removed — the
    label tags registry records, it does not change the question — so two
    scenarios asking the same thing hash identically no matter how they
    were constructed (defaults filled in, family fields derived, fault
    blocks canonicalized: all of that happens eagerly in
    ``Scenario.__post_init__`` before the JSON form exists).  ``backend``
    and the ``faults`` block *are* part of the key: a cache must never
    serve a simulator answer for a model question, nor a nominal answer
    for a degraded fabric.

    **Stability contract.**  The digest input is the versioned canonical
    JSON, so the key is stable across processes, platforms and library
    releases for as long as :data:`SCENARIO_KEY_VERSION` and the
    scenario's JSON schema stay put; any change to either must bump the
    version prefix.  The registry stores the key in every record's
    provenance (``provenance["scenario_key"]``), which is what makes
    served-from-cache lookups exact.
    """
    data = scenario.to_json()
    data.pop("label", None)
    canonical = json.dumps(
        {"version": SCENARIO_KEY_VERSION, "scenario": data},
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"{SCENARIO_KEY_VERSION}-{hashlib.sha256(canonical.encode()).hexdigest()}"


@dataclass(frozen=True)
class Scenario:
    """One declarative network question (see the module docstring).

    Attributes
    ----------
    topology:
        Topology family, one of :data:`TOPOLOGIES`.
    num_processors:
        Machine size ``N``; each family's structural constraints are
        validated eagerly (powers of four for the butterfly fat-tree,
        ``children ** levels`` for generalized fat-trees, powers of two
        for the hypercube, ``radix ** m`` for the torus).
    children, parents, levels:
        ``generalized-fattree`` structure (block radix, up-links per
        switch, tree height).  ``children``/``parents`` default to the
        4-2 shape; a missing ``levels`` is derived from
        ``num_processors = children ** levels``.
    dimension:
        ``hypercube`` dimension ``d``; derived from
        ``num_processors = 2 ** d`` when omitted.
    radix:
        ``kary-ncube`` ring length ``k`` (default 4); the dimension count
        follows from ``num_processors = radix ** m``.
    message_flits:
        Worm length in flits.
    flit_load:
        The operating point in flits/cycle/PE (Figure-3 units); point
        metrics and simulator replications are taken here.
    pattern:
        Traffic-scenario name from the registry (see ``repro patterns``).
    pattern_params:
        Extra spec parameters (e.g. ``hotspot_fraction``); stored as a
        plain mapping so the scenario stays JSON-able.
    backend:
        One of :data:`BACKENDS`.
    sweep_points:
        Grid size of the latency-vs-load curve the analytical backends
        produce; ``0`` skips the curve.  The simulate backend never
        sweeps implicitly (simulation cost is per point).
    sweep_fraction:
        The curve's top grid point as a fraction of the backend's own
        saturation load.
    flit_loads:
        Optional explicit load grid (overrides the derived one).
    simulator, replications, warmup_cycles, measure_cycles, seed:
        Measurement protocol of the ``simulate`` backend.
    label:
        Free-form tag recorded with the run (useful for registry queries).
    faults:
        Optional fault specification — a
        :class:`~repro.faults.FaultSpec` or its JSON mapping form —
        evaluated by *every* backend: the analytical backends solve the
        degraded stage graph of the fault-masked topology, and the
        simulate backend routes the same mask.  Stored in canonical JSON
        form (``None`` when the spec kills nothing), so scenarios with
        and without trivial fault blocks compare equal.
    """

    topology: str = "bft"
    num_processors: int = 256
    children: int | None = None
    parents: int | None = None
    levels: int | None = None
    dimension: int | None = None
    radix: int | None = None
    message_flits: int = 32
    flit_load: float = 0.02
    pattern: str = "uniform"
    pattern_params: Mapping[str, Any] = field(default_factory=dict)
    backend: str = "batch"
    sweep_points: int = 8
    sweep_fraction: float = 0.98
    flit_loads: tuple[float, ...] | None = None
    simulator: str = "event"
    replications: int = 3
    warmup_cycles: float = 3_000.0
    measure_cycles: float = 9_000.0
    seed: int = 1
    label: str = ""
    faults: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; supported: {TOPOLOGIES}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; supported: {BACKENDS}"
            )
        if self.simulator not in SIMULATORS:
            raise ConfigurationError(
                f"unknown simulator {self.simulator!r}; supported: {SIMULATORS}"
            )
        if self.pattern not in available_patterns():
            raise ConfigurationError(
                f"unknown pattern {self.pattern!r}; see repro.available_patterns()"
            )
        if not isinstance(self.num_processors, int) or self.num_processors < 2:
            raise ConfigurationError("num_processors must be an integer >= 2")
        if not isinstance(self.message_flits, int) or self.message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        if not (self.flit_load >= 0.0):
            raise ConfigurationError("flit_load must be non-negative")
        if self.sweep_points < 0 or self.sweep_points == 1:
            raise ConfigurationError("sweep_points must be 0 (no curve) or >= 2")
        if not (0.0 < self.sweep_fraction < 1.0):
            raise ConfigurationError("sweep_fraction must be in (0, 1)")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        # Canonicalize the fault block eagerly: accept a FaultSpec object
        # or its JSON form, validate it, and store the canonical mapping
        # (dropping trivial specs so faultless scenarios compare equal).
        if self.faults is not None:
            from ..faults import FaultSpec

            fault_spec = FaultSpec.from_json(self.faults)
            object.__setattr__(
                self,
                "faults",
                None if fault_spec.is_trivial() else fault_spec.to_json(),
            )
        # Normalize the per-family structural parameters (fill defaults,
        # derive missing values from num_processors, reject fields that do
        # not belong to the family), then let the design-family registry
        # apply the family's own constraints — all eagerly, so an
        # unrealizable topology fails at construction, not mid-run.
        for name, value in _normalized_family_fields(self).items():
            object.__setattr__(self, name, value)
        from ..design.families import design_family

        design_family(self.topology).validate(self.family_params())
        # Freeze the mutable-looking fields so the dataclass stays hashable
        # in spirit and the JSON form is canonical.
        object.__setattr__(self, "pattern_params", dict(self.pattern_params))
        if self.flit_loads is not None:
            loads = tuple(float(x) for x in self.flit_loads)
            if len(loads) == 0:
                raise ConfigurationError("flit_loads must be non-empty when given")
            if any(x < 0 for x in loads):
                raise ConfigurationError("flit_loads must be non-negative")
            object.__setattr__(self, "flit_loads", loads)
        # Instantiating the workload, the spec and (for simulate) the
        # protocol validates the remaining fields eagerly, so an
        # infeasible scenario fails at construction, not mid-run.
        self.workload()
        try:
            spec = self.spec()
        except TypeError as exc:
            # make_spec rejects unknown keyword parameters with TypeError;
            # surface it as the library's typed configuration error.
            raise ConfigurationError(
                f"invalid pattern_params for pattern {self.pattern!r}: {exc}"
            ) from exc
        if spec is not None and spec.name != "uniform":
            from ..design.families import design_family

            if not design_family(self.topology).supports_patterns:
                capable = tuple(
                    t for t in TOPOLOGIES if design_family(t).supports_patterns
                )
                raise ConfigurationError(
                    f"topology {self.topology!r} has no pattern-aware model; "
                    f"pattern {spec.name!r} requires one of the "
                    f"pattern-capable families {capable}"
                )
        if self.backend == "simulate":
            self.sim_config()

    # --- derived objects ---------------------------------------------------------

    def family_params(self) -> dict[str, int]:
        """The design-family parameter assignment this scenario describes.

        The keys match :attr:`~repro.design.families.DesignFamily.param_names`
        of the family named by :attr:`topology`, so the backends (and any
        caller) can resolve evaluators, topologies and hardware through the
        shared family registry.
        """
        # __post_init__ has already normalized the per-family fields to
        # concrete ints, hence the casts from their Optional declarations.
        if self.topology == "bft":
            return {"processors": self.num_processors}
        if self.topology == "generalized-fattree":
            return {
                "children": cast(int, self.children),
                "parents": cast(int, self.parents),
                "levels": cast(int, self.levels),
            }
        if self.topology == "hypercube":
            return {"dimension": cast(int, self.dimension)}
        if self.topology == "kary-ncube":
            radix = cast(int, self.radix)
            return {
                "radix": radix,
                "dimensions": cast(int, exact_exponent(radix, self.num_processors)),
            }
        raise ConfigurationError(  # pragma: no cover - __post_init__ validates
            f"unknown topology {self.topology!r}"
        )

    def workload(self) -> Workload:
        """The operating point as a :class:`~repro.config.Workload`."""
        return Workload.from_flit_load(self.flit_load, self.message_flits)

    def spec(self) -> TrafficSpec | None:
        """The :class:`TrafficSpec`, or None for plain uniform traffic.

        Uniform returns None so the backends keep the closed-form fast
        path (and byte-identical output with the pre-facade entry points).
        """
        if self.pattern == "uniform" and not self.pattern_params:
            return None
        return make_spec(self.pattern, **dict(self.pattern_params))

    def fault_spec(self) -> "FaultSpec | None":
        """The :class:`~repro.faults.FaultSpec`, or None for a nominal run."""
        if self.faults is None:
            return None
        from ..faults import FaultSpec

        return FaultSpec.from_json(self.faults)

    def sim_config(self) -> SimConfig:
        """The measurement protocol of the ``simulate`` backend."""
        return SimConfig(
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seed=self.seed,
        )

    def with_backend(self, backend: str) -> "Scenario":
        """The same question answered by a different backend."""
        return dataclasses.replace(self, backend=backend)

    def key(self) -> str:
        """The content address of this scenario (see :func:`scenario_key`)."""
        return scenario_key(self)

    def describe(self) -> str:
        """One-line human-readable summary."""
        params = {
            k: getattr(self, k)
            for k in _FAMILY_FIELDS[self.topology]
            if getattr(self, k) is not None
        }
        shape = "" if not params else (
            "[" + ",".join(f"{k}={v}" for k, v in params.items()) + "]"
        )
        fault_note = ""
        spec = self.fault_spec()
        if spec is not None:
            fault_note = f", {spec.describe()}"
        return (
            f"Scenario({self.topology}{shape} N={self.num_processors}, "
            f"{self.message_flits}-flit, load={self.flit_load:g} fl/cyc/PE, "
            f"pattern={self.pattern}, backend={self.backend}{fault_note})"
        )

    # --- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        """Plain-JSON form (lossless; see :meth:`from_json`)."""
        data = dataclasses.asdict(self)
        data["pattern_params"] = dict(self.pattern_params)
        data["flit_loads"] = (
            list(self.flit_loads) if self.flit_loads is not None else None
        )
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown Scenario fields in record: {sorted(unknown)}"
            )
        kwargs = dict(data)
        if kwargs.get("flit_loads") is not None:
            kwargs["flit_loads"] = tuple(float(x) for x in kwargs["flit_loads"])
        return cls(**kwargs)
