"""Tests for the Scenario→Run facade and the persistent run registry."""

from __future__ import annotations

import json
import math
import multiprocessing
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import METRICS

from repro.errors import ConfigurationError, RegistryError, SchemaVersionError
from repro.runs import (
    SCHEMA_VERSION,
    RunRegistry,
    RunResult,
    Runner,
    Scenario,
    diff_metrics,
    flatten_metrics,
    json_restore,
    json_safe,
    run,
)

DATA = Path(__file__).resolve().parent / "data"


def tiny_scenario(**overrides) -> Scenario:
    """A scenario small enough that every backend answers in well under a second."""
    defaults = dict(
        num_processors=16,
        message_flits=16,
        flit_load=0.04,
        sweep_points=4,
        replications=2,
        warmup_cycles=300.0,
        measure_cycles=1200.0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenario:
    def test_defaults_valid(self):
        sc = Scenario()
        assert sc.backend == "batch"
        assert sc.workload().flit_load == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "nope"},
            {"topology": "mesh"},
            {"simulator": "quantum"},
            {"pattern": "zipf"},
            {"num_processors": 0},
            {"message_flits": -1},
            {"flit_load": -0.1},
            {"sweep_points": 1},
            {"sweep_fraction": 1.5},
            {"replications": 0},
            {"flit_loads": ()},
            {"flit_loads": (-0.1, 0.2)},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Scenario(**kwargs)

    def test_simulate_protocol_validated_eagerly(self):
        with pytest.raises(ConfigurationError):
            Scenario(backend="simulate", measure_cycles=0.0)

    def test_uniform_spec_is_none(self):
        assert Scenario().spec() is None

    def test_pattern_spec_built_with_params(self):
        sc = Scenario(pattern="hotspot", pattern_params={"hotspot_fraction": 0.2})
        spec = sc.spec()
        assert spec is not None and spec.name == "hotspot"

    def test_unknown_pattern_params_rejected_at_construction(self):
        # A plausible typo must fail eagerly and typed, not as a TypeError
        # traceback at run() time.
        with pytest.raises(ConfigurationError, match="pattern_params"):
            Scenario(pattern="hotspot", pattern_params={"fraction": 0.2})

    def test_with_backend(self):
        sc = Scenario(backend="batch")
        assert sc.with_backend("simulate").backend == "simulate"
        assert sc.backend == "batch"  # original untouched

    def test_round_trip(self):
        sc = tiny_scenario(pattern="transpose", flit_loads=(0.01, 0.02))
        assert Scenario.from_json(sc.to_json()) == sc

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topology": "hypercube", "num_processors": 16},
            {"topology": "generalized-fattree", "num_processors": 16},
            {"topology": "generalized-fattree", "num_processors": 8,
             "children": 2, "parents": 3},
            {"topology": "kary-ncube", "num_processors": 27, "radix": 3},
        ],
    )
    def test_family_round_trip(self, kwargs):
        sc = tiny_scenario(**kwargs)
        assert Scenario.from_json(sc.to_json()) == sc


class TestScenarioFamilies:
    def test_family_params_derived(self):
        assert tiny_scenario().family_params() == {"processors": 16}
        sc = tiny_scenario(topology="generalized-fattree", num_processors=16)
        # The 4-2 defaults fill in and the height derives from N.
        assert (sc.children, sc.parents, sc.levels) == (4, 2, 2)
        assert sc.family_params() == {"children": 4, "parents": 2, "levels": 2}
        assert tiny_scenario(
            topology="hypercube", num_processors=16
        ).family_params() == {"dimension": 4}
        assert tiny_scenario(
            topology="kary-ncube", num_processors=16
        ).family_params() == {"radix": 4, "dimensions": 2}

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Sizes the family cannot realize fail eagerly.
            {"topology": "bft", "num_processors": 32},
            {"topology": "hypercube", "num_processors": 12},
            {"topology": "generalized-fattree", "num_processors": 24},
            {"topology": "kary-ncube", "num_processors": 10},
            # Inconsistent explicit parameters.
            {"topology": "hypercube", "num_processors": 16, "dimension": 5},
            {"topology": "generalized-fattree", "num_processors": 16, "levels": 3},
            {"topology": "kary-ncube", "num_processors": 16, "radix": 3},
            # Parameters from another family are rejected, not ignored.
            {"topology": "bft", "num_processors": 16, "children": 4},
            {"topology": "hypercube", "num_processors": 16, "radix": 4},
            {"topology": "kary-ncube", "num_processors": 16, "dimension": 2},
            # Family-level constraints apply eagerly too.
            {"topology": "generalized-fattree", "num_processors": 1,
             "children": 2, "levels": 0},
            {"topology": "kary-ncube", "num_processors": 16, "radix": 1},
        ],
    )
    def test_invalid_family_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            tiny_scenario(**kwargs)

    def test_patterns_gated_to_pattern_aware_families(self):
        # bft and hypercube have pattern-aware channel graphs ...
        tiny_scenario(topology="hypercube", pattern="transpose")
        # ... the others reject non-uniform patterns at construction.
        for topology, n in (("generalized-fattree", 16), ("kary-ncube", 16)):
            with pytest.raises(ConfigurationError, match="pattern"):
                tiny_scenario(topology=topology, num_processors=n,
                              pattern="transpose")

    def test_describe_names_the_shape(self):
        text = tiny_scenario(
            topology="generalized-fattree", num_processors=8,
            children=2, parents=2,
        ).describe()
        assert "generalized-fattree" in text and "children=2" in text

    def test_from_json_rejects_unknown_fields(self):
        data = Scenario().to_json()
        data["frobnicate"] = 1
        with pytest.raises(ConfigurationError):
            Scenario.from_json(data)


class TestJsonCodec:
    def test_non_finite_floats_round_trip(self):
        original = {
            "a": math.inf,
            "b": -math.inf,
            "c": [1.5, math.nan],
            "d": {"nested": math.inf},
        }
        encoded = json_safe(original)
        # The encoded form must be strict JSON (no Infinity/NaN literals).
        json.loads(json.dumps(encoded, allow_nan=False))
        restored = json_restore(encoded)
        assert restored["a"] == math.inf
        assert restored["b"] == -math.inf
        assert math.isnan(restored["c"][1])
        assert restored["d"]["nested"] == math.inf

    def test_numpy_values_demoted(self):
        encoded = json_safe({"arr": np.array([1.0, 2.0]), "scalar": np.float64(3.5)})
        assert encoded == {"arr": [1.0, 2.0], "scalar": 3.5}

    def test_unserializable_rejected(self):
        with pytest.raises(ConfigurationError):
            json_safe({"bad": object()})


class TestRunResultSerialization:
    @pytest.mark.parametrize("backend", ["model", "batch", "simulate", "baseline"])
    def test_round_trip_equality_every_backend(self, backend):
        result = run(tiny_scenario(backend=backend))
        assert RunResult.from_json(result.to_json()) == result
        # And through the string form (the registry's on-disk record).
        assert RunResult.from_json(result.to_json_str()) == result

    def test_round_trip_preserves_inf_latencies(self):
        # An explicit grid reaching past saturation forces inf into the curve.
        result = run(tiny_scenario(backend="batch", flit_loads=(0.01, 5.0)))
        assert result.metrics["curve"]["latencies"][-1] == math.inf
        restored = RunResult.from_json(result.to_json())
        assert restored == result
        assert restored.metrics["curve"]["latencies"][-1] == math.inf

    def test_schema_version_bump_detected(self):
        result = run(tiny_scenario(backend="batch", sweep_points=0))
        data = result.to_json()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError):
            RunResult.from_json(data)

    def test_missing_schema_version_detected(self):
        result = run(tiny_scenario(backend="batch", sweep_points=0))
        data = result.to_json()
        del data["schema_version"]
        with pytest.raises(SchemaVersionError):
            RunResult.from_json(data)

    @pytest.mark.parametrize("field", ["run_id", "created_at"])
    def test_structurally_incomplete_record_is_typed_error(self, field):
        result = run(tiny_scenario(backend="batch", sweep_points=0))
        data = result.to_json()
        del data[field]
        with pytest.raises(RegistryError, match=field):
            RunResult.from_json(data)

    def test_provenance_and_timings_stamped(self):
        result = run(tiny_scenario(backend="batch", sweep_points=0))
        assert result.provenance["backend"] == "batch"
        assert result.provenance["repro_version"]
        assert result.timings["total_s"] > 0.0
        assert result.run_id.startswith("run-")

    def test_bench_records_need_no_scenario(self):
        record = RunResult.for_metrics({"benches": {"x": {"median_s": 0.5}}})
        assert record.kind == "bench"
        assert RunResult.from_json(record.to_json()) == record

    def test_scenario_records_require_scenario(self):
        with pytest.raises(ConfigurationError):
            RunResult(metrics={}, scenario=None, kind="scenario")


class TestBackends:
    def test_model_and_batch_agree_exactly(self):
        """``model`` is an alias of ``batch``: the same engine and answers."""
        sc = tiny_scenario(backend="model")
        a = run(sc)
        b = run(sc.with_backend("batch"))
        assert a.metrics["engine"] == b.metrics["engine"] == "batch"
        assert a.metrics["point"] == b.metrics["point"]
        assert a.metrics["saturation"] == b.metrics["saturation"]
        # The curve label names the backend; everything else is equal.
        assert a.metrics["curve"].pop("label") == "model 16-flit"
        assert b.metrics["curve"].pop("label") == "batch 16-flit"
        assert a.metrics["curve"] == b.metrics["curve"]

    def test_model_scenario_key_unchanged(self):
        # Scenario keys hash the backend name; keeping ``model`` as a name
        # keeps the keys of stored 2.x records valid.
        assert Scenario(backend="model").key() == (
            "sk1-f5c672a97f764695abb320774a075def419ba9064013af5f029f7564c5d4baec"
        )

    def test_stored_scalar_engine_record_loads_and_diffs_on_engine(self, tmp_path):
        """A 2.x ``model`` record (``"engine": "scalar"``) still loads, and
        diffing it against a fresh run changes only ``engine`` (outside the
        run-to-run observability telemetry)."""
        stored = json.loads((DATA / "model_record_v2.json").read_text())
        registry = RunRegistry(tmp_path)
        old = RunResult.from_json(stored)
        assert old.metrics["engine"] == "scalar"
        registry.save(old)
        assert registry.load(old.run_id) == old
        new = Runner(registry=registry).run(old.scenario)
        assert new.scenario.key() == old.scenario.key()
        diff = registry.diff(old.run_id, new.run_id)
        assert diff.relabeled == (("engine", "scalar", "batch"),)
        assert diff.only_a == () and diff.only_b == ()
        assert all(d.key.startswith("observability.") for d in diff.changed)

    def test_baseline_differs_from_model(self):
        sc = tiny_scenario(sweep_points=0)
        paper = run(sc)
        naive = run(sc.with_backend("baseline"))
        assert naive.metrics["variant"] != paper.metrics["variant"]
        assert naive.metrics["point"]["latency"] != paper.metrics["point"]["latency"]

    def test_simulate_produces_replication_set(self):
        result = run(tiny_scenario(backend="simulate"))
        reps = result.metrics["replications"]
        assert len(reps) == 2
        assert len({r["seed"] for r in reps}) == 2  # independently seeded
        point = result.metrics["point"]
        assert point["stable"] is True
        assert point["latency"] > 0
        # The analytical prediction rides along for crosschecks.
        assert point["model_prediction"] == pytest.approx(point["latency"], rel=0.25)

    def test_pattern_scenario_through_model_and_simulator(self):
        sc = tiny_scenario(pattern="transpose", sweep_points=0, flit_load=0.03)
        analytical = run(sc)
        measured = run(sc.with_backend("simulate"))
        assert analytical.metrics["point"]["latency"] > 0
        assert measured.metrics["point"]["latency"] > 0

    def test_no_curve_when_sweep_points_zero(self):
        assert run(tiny_scenario(sweep_points=0)).metrics["curve"] is None

    def test_explicit_grid_respected(self):
        grid = (0.01, 0.02, 0.03)
        result = run(tiny_scenario(backend="batch", flit_loads=grid))
        assert tuple(result.metrics["curve"]["flit_loads"]) == grid

    @pytest.mark.parametrize(
        "family",
        [
            {"topology": "bft", "num_processors": 16},
            {"topology": "generalized-fattree", "num_processors": 8,
             "children": 2, "parents": 2},
            {"topology": "hypercube", "num_processors": 16},
            {"topology": "kary-ncube", "num_processors": 9, "radix": 3},
        ],
    )
    def test_explicit_zero_grid_exact_on_both_engines(self, family):
        """The explicit-grid policy: a grid containing 0.0 is evaluated
        exactly as given — the exact zero-load latency, never the 2% floor
        the derived grids apply — and model/batch stay bit-identical."""
        grid = (0.0, 0.01, 0.02)
        sc = tiny_scenario(backend="model", flit_loads=grid, **family)
        a = run(sc)
        b = run(sc.with_backend("batch"))
        for record in (a, b):
            assert tuple(record.metrics["curve"]["flit_loads"]) == grid
        lat_a = a.metrics["curve"]["latencies"]
        lat_b = b.metrics["curve"]["latencies"]
        np.testing.assert_array_equal(lat_a, lat_b)
        # Zero load is the finite contention-free limit, not nan/inf,
        # and the curve rises from it.
        assert math.isfinite(lat_a[0])
        assert lat_a[0] < lat_a[-1]


class TestAcceptance:
    def test_one_scenario_four_backends_land_in_registry(self, tmp_path):
        """The PR's acceptance criterion: one Scenario answers as a latency
        sweep, a saturation search, a simulator replication set, and a
        baseline curve purely by switching backend, and all four records
        persist and round-trip losslessly."""
        registry = RunRegistry(tmp_path / "registry")
        runner = Runner(registry=registry)
        scenario = tiny_scenario(label="acceptance")
        results = {
            backend: runner.run(scenario.with_backend(backend))
            for backend in ("model", "batch", "simulate", "baseline")
        }
        # latency sweep (batch) ...
        assert len(results["batch"].metrics["curve"]["latencies"]) == 4
        # ... a saturation search (model, the batch engine's alias) ...
        assert results["model"].metrics["saturation"]["flit_load"] > 0
        # ... a simulator replication set ...
        assert len(results["simulate"].metrics["replications"]) == 2
        # ... and a baseline curve.
        assert len(results["baseline"].metrics["curve"]["latencies"]) == 4

        assert len(registry) == 4
        for backend, result in results.items():
            loaded = registry.load(result.run_id)
            assert loaded == result, backend
            assert RunResult.from_json(result.to_json()) == result, backend
        assert {r.scenario.backend for r in registry.query(label="acceptance")} == {
            "model",
            "batch",
            "simulate",
            "baseline",
        }


class TestRegistry:
    def synthetic_trajectory(self, registry: RunRegistry) -> list[RunResult]:
        """Three fabricated records emulating a cross-PR perf trajectory."""
        records = []
        for i, latency in enumerate((21.0, 20.0, 18.5)):
            records.append(
                RunResult(
                    metrics={
                        "point": {"latency": latency, "flit_load": 0.02},
                        "saturation": {"flit_load": 0.30 + 0.01 * i},
                    },
                    scenario=Scenario(num_processors=16, message_flits=16),
                    label=f"pr-{i}",
                    created_at=1_000.0 + i,
                )
            )
            registry.save(records[-1])
        return records

    def test_save_load_query(self, tmp_path):
        registry = RunRegistry(tmp_path)
        records = self.synthetic_trajectory(registry)
        assert len(registry) == 3
        assert registry.ids() == [r.run_id for r in records]
        assert registry.load(records[1].run_id) == records[1]
        assert registry.load("latest") == records[-1]
        assert registry.latest() == records[-1]
        assert registry.query(label="pr-1") == [records[1]]
        assert registry.query(backend="batch") == records
        assert registry.query(backend="simulate") == []
        assert registry.query(num_processors=16, message_flits=16) == records
        assert registry.query(
            predicate=lambda r: r.metrics["point"]["latency"] < 20.5
        ) == records[1:]

    def test_load_missing_run_is_clean_error(self, tmp_path):
        registry = RunRegistry(tmp_path)
        with pytest.raises(RegistryError):
            registry.load("run-does-not-exist")
        with pytest.raises(RegistryError):
            registry.load("latest")

    def test_diff_on_synthetic_trajectory(self, tmp_path):
        registry = RunRegistry(tmp_path)
        records = self.synthetic_trajectory(registry)
        diff = registry.diff(records[0].run_id, records[2].run_id)
        deltas = {d.key: d for d in diff.deltas}
        assert deltas["point.latency"].delta == pytest.approx(-2.5)
        assert deltas["point.latency"].rel == pytest.approx(-2.5 / 21.0)
        assert deltas["saturation.flit_load"].delta == pytest.approx(0.02)
        assert "point.latency" in diff.render()

    def test_self_diff_empty_with_nan_and_inf_metrics(self, tmp_path):
        """Satellite regression: NaN leaves (legal post-saturation values)
        must not make a record diff unequal to itself."""
        registry = RunRegistry(tmp_path)
        record = RunResult(
            metrics={
                "point": {"latency": math.nan, "flit_load": 0.2},
                "curve": {"latencies": [20.0, math.inf, math.nan]},
            },
            scenario=Scenario(num_processors=16, message_flits=16),
        )
        registry.save(record)
        diff = registry.diff(record.run_id, record.run_id)
        assert diff.changed == ()
        assert diff.only_a == () and diff.only_b == ()
        assert diff.max_abs_rel == 0.0
        # Every self-compared leaf — nan and inf included — reports an
        # exact zero change, not nan (nan - nan) or inf arithmetic.
        assert all(d.delta == 0.0 and d.rel == 0.0 for d in diff.deltas)
        # A genuinely different value still shows up as changed.
        other = RunResult(
            metrics={
                "point": {"latency": 21.0, "flit_load": 0.2},
                "curve": {"latencies": [20.0, math.inf, math.nan]},
            },
            scenario=Scenario(num_processors=16, message_flits=16),
        )
        registry.save(other)
        changed = registry.diff(record.run_id, other.run_id).changed
        assert [d.key for d in changed] == ["point.latency"]

    def test_query_by_topology(self, tmp_path):
        registry = RunRegistry(tmp_path)
        for topology, n in (("bft", 16), ("hypercube", 8)):
            registry.save(
                RunResult(
                    metrics={"point": {"latency": 20.0}},
                    scenario=Scenario(topology=topology, num_processors=n,
                                      message_flits=16),
                )
            )
        assert [
            r.scenario.topology for r in registry.query(topology="hypercube")
        ] == ["hypercube"]
        assert len(registry.query(topology="bft")) == 1
        assert registry.query(topology="kary-ncube") == []

    def test_diff_against_json_baseline_file(self, tmp_path):
        registry = RunRegistry(tmp_path)
        self.synthetic_trajectory(registry)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"point": {"latency": 20.0}, "extra_metric": 1.0})
        )
        diff = registry.diff("latest", str(baseline))
        deltas = {d.key: d for d in diff.deltas}
        assert deltas["point.latency"].delta == pytest.approx(1.5)
        assert "extra_metric" in diff.only_b

    def test_schema_bumped_records_skipped_in_iteration(self, tmp_path):
        registry = RunRegistry(tmp_path)
        records = self.synthetic_trajectory(registry)
        alien = records[0].to_json()
        alien["schema_version"] = SCHEMA_VERSION + 7
        alien["run_id"] = "run-from-the-future"
        with registry.records_path.open("a") as fh:
            fh.write(json.dumps(alien) + "\n")
        assert len(registry) == 3  # iteration skips the alien record ...
        assert registry.skipped_versions == 1  # ... but reports it
        with pytest.raises(SchemaVersionError):  # direct load refuses it
            registry.load("run-from-the-future")

    def test_corrupt_line_is_skipped_and_counted(self, tmp_path):
        # A torn append must not take the readable records down with it:
        # iteration skips the bad line, counts it, and warns once; `doctor`
        # (tested in test_faults.py) reports and quarantines it.
        registry = RunRegistry(tmp_path)
        self.synthetic_trajectory(registry)
        with registry.records_path.open("a") as fh:
            fh.write("{not json\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(list(registry)) == 3
        assert registry.skipped_corrupt == 1
        assert len(caught) == 1


class TestFlatten:
    def test_nested_and_lists(self):
        flat = flatten_metrics(
            {"a": {"b": 1.0, "label": "x"}, "c": [2.0, {"d": 3.0}], "ok": True}
        )
        assert flat == {"a.b": 1.0, "c[0]": 2.0, "c[1].d": 3.0}

    def test_diff_metrics_rel_edge_cases(self):
        diff = diff_metrics(
            {"zero": 0.0, "inf": math.inf, "n": 2.0},
            {"zero": 0.0, "inf": math.inf, "n": 1.0},
        )
        by_key = {d.key: d for d in diff.deltas}
        assert by_key["zero"].rel == 0.0
        assert by_key["inf"].rel == 0.0
        assert by_key["n"].rel == pytest.approx(-0.5)
        assert diff.max_abs_rel == pytest.approx(0.5)

    def test_diff_reports_missing_leaves_of_any_type(self):
        # Satellite regression: a boolean or label leaf present on only
        # one side used to vanish from the report entirely (only numeric
        # leaves were flattened); it must show up as added/removed.
        diff = diff_metrics(
            {"x": {"flag": True, "v": 1.0}, "note": "tuned"},
            {"x": {"v": 2.0}, "extra": None},
        )
        assert "x.flag" in diff.only_a
        assert "note" in diff.only_a
        assert "extra" in diff.only_b
        # The numeric comparison itself is untouched by the fix.
        assert [d.key for d in diff.deltas] == ["x.v"]

    def test_diff_reports_changed_non_numeric_leaves(self):
        diff = diff_metrics(
            {"engine": "scalar", "ok": True, "v": 1.0, "cap": 2.0, "same": "x"},
            {"engine": "batch", "ok": False, "v": 1.0, "cap": None, "same": "x"},
        )
        assert diff.relabeled == (
            ("cap", 2.0, None),
            ("engine", "scalar", "batch"),
            ("ok", True, False),
        )
        assert diff.changed == ()
        assert "changed engine: 'scalar' -> 'batch'" in diff.render()
        assert diff.to_json()["relabeled"][1] == {
            "key": "engine", "a": "scalar", "b": "batch"
        }

    def test_diff_against_nan_is_undefined_not_infinite(self):
        # A censored simulate run can carry nan latencies; comparing a
        # finite baseline against nan must report "undefined", not ±inf.
        diff = diff_metrics(
            {"m": 20.0, "both": math.nan, "n": 1.0},
            {"m": math.nan, "both": math.nan, "n": 2.0},
        )
        by_key = {d.key: d for d in diff.deltas}
        assert math.isnan(by_key["m"].rel)
        assert by_key["both"].rel == 0.0
        assert diff.max_abs_rel == pytest.approx(1.0)  # nan never dominates
        # Rendering ranks the defined comparison first and nan last.
        rows = [l.strip() for l in diff.render().splitlines()]
        row_n = next(i for i, l in enumerate(rows) if l.startswith("n "))
        row_m = next(i for i, l in enumerate(rows) if l.startswith("m "))
        assert row_n < row_m


class TestRegistryScanMemo:
    """The incremental-read contract: ``registry.records_read`` counts line
    *parses*, so repeated reads of an unchanged registry parse nothing."""

    def save_n(self, registry: RunRegistry, n: int, start: int = 0) -> None:
        for i in range(start, start + n):
            registry.save(
                RunResult(
                    metrics={"point": {"latency": 20.0 + i}},
                    scenario=Scenario(num_processors=16, message_flits=16),
                    created_at=float(i + 1),
                )
            )

    def test_repeat_reads_parse_only_appended_lines(self, tmp_path):
        registry = RunRegistry(tmp_path)
        self.save_n(registry, 3)
        with METRICS.collect() as first:
            assert len(registry) == 3
        assert first.data["counters"]["registry.records_read"] == 3
        with METRICS.collect() as second:
            assert len(registry) == 3
            assert registry.latest() is not None
        # Two full iterations, zero parses: both served from the memo.
        assert "registry.records_read" not in second.data["counters"]
        assert second.data["counters"]["registry.scans"] == 2
        self.save_n(registry, 2, start=3)
        with METRICS.collect() as third:
            assert len(registry) == 5
        assert third.data["counters"]["registry.records_read"] == 2

    def test_fresh_instance_sees_everything(self, tmp_path):
        registry = RunRegistry(tmp_path)
        self.save_n(registry, 3)
        assert len(registry) == 3
        assert len(RunRegistry(tmp_path)) == 3

    def test_file_shrink_invalidates_memo(self, tmp_path):
        registry = RunRegistry(tmp_path)
        self.save_n(registry, 3)
        ids = registry.ids()
        assert len(ids) == 3
        # Rewrite the file keeping only the first record (a hand edit a
        # memoized offset must not survive).
        first_line = registry.records_path.read_text().splitlines()[0]
        registry.records_path.write_text(first_line + "\n")
        assert registry.ids() == ids[:1]

    def test_incomplete_trailing_line_not_memoized(self, tmp_path):
        registry = RunRegistry(tmp_path)
        self.save_n(registry, 1)
        in_flight = RunResult(
            metrics={"point": {"latency": 30.0}},
            scenario=Scenario(num_processors=16, message_flits=16),
            created_at=99.0,
        )
        with registry.records_path.open("a") as fh:
            fh.write(in_flight.to_json_str())  # no newline: append in flight
        # The torn tail is readable (best effort) but never cached ...
        assert len(registry) == 2
        with registry.records_path.open("a") as fh:
            fh.write("\n")
        # ... so once the newline lands, the completed line is re-read.
        with METRICS.collect() as telemetry:
            assert registry.ids().count(in_flight.run_id) == 1
        assert telemetry.data["counters"]["registry.records_read"] == 1

    def test_nested_iteration_keeps_memo_consistent(self, tmp_path):
        registry = RunRegistry(tmp_path)
        self.save_n(registry, 3)
        # A predicate that re-enters the registry mid-iteration (the
        # classic double-memoization hazard).
        rows = registry.query(predicate=lambda r: registry.latest() is not None)
        assert len(rows) == 3
        assert registry.ids() == [r.run_id for r in rows]  # no duplicates


def _stress_appender(path_str: str, worker: int, count: int) -> None:
    """Child-process body for the concurrent-append stress test."""
    registry = RunRegistry(path_str)
    scenario = Scenario(num_processors=16, message_flits=16)
    for i in range(count):
        registry.save(
            RunResult(
                metrics={
                    "worker": {"id": float(worker), "i": float(i)},
                    # Bulk the line up so a non-atomic append would tear.
                    "pad": {"blob": "x" * 2048},
                },
                scenario=scenario,
                label=f"w{worker}",
                created_at=float(worker * 1_000 + i + 1),
            )
        )


class TestConcurrentWriters:
    def test_parallel_processes_never_tear_lines(self, tmp_path):
        """Four appender processes sharing one registry: every record is a
        complete line (the O_APPEND single-write contract)."""
        workers, per_worker = 4, 50
        procs = [
            multiprocessing.Process(
                target=_stress_appender, args=(str(tmp_path), w, per_worker)
            )
            for w in range(workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        registry = RunRegistry(tmp_path)
        records = list(registry)
        assert len(records) == workers * per_worker
        assert registry.skipped_corrupt == 0
        for w in range(workers):
            mine = [r for r in records if r.label == f"w{w}"]
            assert sorted(r.metrics["worker"]["i"] for r in mine) == [
                float(i) for i in range(per_worker)
            ]


class TestExplorationRecords:
    def test_exploration_kind_round_trips(self, tmp_path):
        registry = RunRegistry(tmp_path)
        record = RunResult(
            metrics={"exploration": {"feasible_count": 3, "pareto": []}},
            scenario=None,
            kind="exploration",
            label="frontier",
        )
        registry.save(record)
        assert registry.load(record.run_id) == record
        assert registry.query(kind="exploration") == [record]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            RunResult(metrics={}, scenario=None, kind="mystery")
