"""Tests for fault injection and degraded-mode evaluation.

Covers the fault grammar and spec, topology masking, degraded traffic
renormalization, the four-family acceptance matrix (model/batch
bit-identity with one dead link per family), the BFT model-vs-simulation
crosscheck on a degraded fabric, partition detection, the robustness
satellites (corrupt-registry tolerance + doctor, HotspotSpec input
hardening, diagnostic ConvergenceError, replication rescue seeding) and
the fault-aware CLI surface.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.config import SimConfig, Workload
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    PartitionedNetworkError,
)
from repro.faults import (
    DegradedTrafficSpec,
    FaultedTopology,
    FaultSpec,
    degraded_spec,
    link_ref,
    parse_link_ref,
    parse_switch_ref,
)
from repro.runs import Runner, RunRegistry, Scenario
from repro.simulation.runner import run_replications
from repro.simulation.wormhole_sim import EventDrivenWormholeSimulator
from repro.topology.butterfly_fattree import ButterflyFatTree
from repro.topology.hypercube import Hypercube
from repro.traffic.flows import bft_channel_flows, masked_channel_flows
from repro.traffic.spec import HotspotSpec
from repro.util.fixedpoint import fixed_point

#: One non-partitioning dead link per family: a redundant up link for the
#: trees (the sibling parent survives), an injection link for the cubes
#: (dimension-order routing is single-path, so any *network* link cut
#: partitions a pair — that case is tested separately).
FAMILY_MATRIX = [
    (dict(topology="bft", num_processors=16), "up:1:0"),
    (
        dict(
            topology="generalized-fattree",
            num_processors=8,
            children=2,
            parents=2,
            levels=3,
        ),
        "up:1:0",
    ),
    (dict(topology="hypercube", num_processors=16), "up:0:1"),
    (dict(topology="kary-ncube", num_processors=9, radix=3), "up:0:1"),
]


def scenario_for(shape: dict, dead: str | None, **overrides) -> Scenario:
    defaults = dict(
        message_flits=16,
        sweep_points=0,
        faults=None if dead is None else {"dead_links": [dead]},
    )
    defaults.update(shape)
    defaults.update(overrides)
    return Scenario(**defaults)


class TestFaultSpec:
    def test_json_round_trip(self):
        spec = FaultSpec(dead_links=("up:1:0", "down:1:2"), seed=3)
        again = FaultSpec.from_json(spec.to_json())
        assert again == spec

    def test_trivial(self):
        assert FaultSpec().is_trivial()
        assert not FaultSpec(dead_links=("up:0:0",)).is_trivial()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dead_links": ("sideways:0:0",)},
            {"dead_links": ("up:0",)},
            {"dead_links": ("up:0:x",)},
            {"dead_switches": ("0:0",)},  # level 0 is a PE, not a switch
            {"random_link_failures": -1},
            {"random_link_failure_rate": 1.5},
            {"random_link_failures": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.from_json({"dead_link": ["up:0:0"]})

    def test_ref_parsers(self):
        assert parse_link_ref("up:1:0") == (0, 1, 0)
        assert parse_switch_ref("2:1") == (2, 1)
        with pytest.raises(ConfigurationError):
            parse_link_ref("bogus")

    def test_link_ref_round_trip(self):
        topo = ButterflyFatTree(16)
        spec = FaultSpec(dead_links=("up:1:3",))
        (dead,) = spec.resolve(topo).dead_links
        assert link_ref(topo, dead) == "up:1:3"

    def test_random_failures_seeded(self):
        topo = ButterflyFatTree(16)
        a = FaultSpec(random_link_failures=2, seed=5).resolve(topo)
        b = FaultSpec(random_link_failures=2, seed=5).resolve(topo)
        c = FaultSpec(random_link_failures=2, seed=6).resolve(topo)
        assert a.dead_links == b.dead_links
        assert len(a.dead_links) == 2
        # Different seeds draw different links (16-PE BFT has enough links
        # that a collision would be a 1-in-many accident, not a law).
        assert a.dead_links != c.dead_links

    def test_too_many_random_failures_rejected(self):
        topo = ButterflyFatTree(16)
        with pytest.raises(ConfigurationError):
            FaultSpec(random_link_failures=10_000).resolve(topo)


class TestFaultedTopology:
    def test_dead_injection_link_kills_terminal(self):
        topo = FaultedTopology(ButterflyFatTree(16), {"dead_links": ["up:0:1"]})
        assert topo.dead_terminals == frozenset({1})
        assert topo.num_processors == 16
        with pytest.raises(PartitionedNetworkError):
            topo.injection_options(1)

    def test_masked_routing_filters_dead_links(self):
        base = ButterflyFatTree(16)
        spec = FaultSpec(dead_links=("up:1:0",))
        (dead,) = spec.resolve(base).dead_links
        topo = FaultedTopology(base, spec)
        for node in range(base.num_processors):
            opts = topo.injection_options(node)
            assert dead not in opts.links
        # Path lengths are untouched: masking filters minimal routes, it
        # never detours.
        assert topo.path_length(0, 5) == base.path_length(0, 5)

    def test_cut_hypercube_partitions(self):
        # d=2: "up:1:0" is router 0's only dimension-0 link; e-cube routing
        # has no alternative path, so the surviving pairs are disconnected.
        with pytest.raises(PartitionedNetworkError):
            FaultedTopology(Hypercube(2), {"dead_links": ["up:1:0"]}).route_options(
                4, 1
            )

    def test_groups_rebuilt_without_dead_links(self):
        base = ButterflyFatTree(16)
        spec = FaultSpec(dead_links=("up:1:0",))
        (dead,) = spec.resolve(base).dead_links
        topo = FaultedTopology(base, spec)
        for group in topo.groups:
            if dead in group:
                assert list(group) == [dead]  # singleton: never granted


class TestDegradedTraffic:
    def test_rows_renormalized(self):
        topo = FaultedTopology(ButterflyFatTree(16), {"dead_links": ["up:0:1"]})
        spec = degraded_spec(topo)
        assert isinstance(spec, DegradedTrafficSpec)
        matrix = spec.destination_matrix(16)
        assert np.all(matrix[1, :] == 0.0)
        assert np.all(matrix[:, 1] == 0.0)
        live = [i for i in range(16) if i != 1]
        np.testing.assert_allclose(matrix[live].sum(axis=1), 1.0)

    def test_no_dead_terminals_is_identity(self):
        topo = FaultedTopology(ButterflyFatTree(16), {"dead_links": ["up:1:0"]})
        assert topo.dead_terminals == frozenset()
        # No terminal died, so the pattern needs no renormalization.
        assert not isinstance(degraded_spec(topo), DegradedTrafficSpec)


class TestMaskedFlows:
    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_closed_form_bft_when_fault_free(self, n):
        from repro.traffic.spec import UniformSpec

        topo = ButterflyFatTree(n)
        reference = bft_channel_flows(topo, UniformSpec())
        masked = masked_channel_flows(topo)
        np.testing.assert_allclose(masked.link_rate, reference.link_rate)
        np.testing.assert_allclose(
            masked.source_distance, reference.source_distance
        )
        assert len(masked.edge_flow) == len(reference.edge_flow)
        for got, want in zip(masked.edge_flow, reference.edge_flow):
            assert got == pytest.approx(want)


def _flow_fields(flows) -> dict:
    """Every ChannelFlows field, floats as their exact bytes."""
    return {
        "link_rate": flows.link_rate.tobytes(),
        "edge_flow": [
            [(e, rate.hex()) for e, rate in out.items()] for out in flows.edge_flow
        ],
        "entry_link": list(flows.entry_link.items()),
        "source_weight": flows.source_weight.tobytes(),
        "source_distance": flows.source_distance.tobytes(),
    }


def _single_path_cases() -> list:
    from repro.topology.kary_ncube import KaryNCube
    from repro.traffic.spec import BitReversalSpec, TransposeSpec, UniformSpec

    networks = [(f"hypercube-d{d}", lambda d=d: Hypercube(d)) for d in range(2, 7)]
    networks += [
        (f"torus-{k}x{n}", lambda k=k, n=n: KaryNCube(k, n))
        for k, n in ((3, 2), (4, 2), (4, 3))
    ]
    specs = (UniformSpec(), TransposeSpec(), HotspotSpec(0.1), BitReversalSpec())
    cases = []
    for label, build in networks:
        n_pes = build().num_processors
        for spec in specs:
            try:
                spec.validate(n_pes)
            except ConfigurationError:
                continue  # the pattern does not apply at this size
            cases.append(pytest.param(build, spec, id=f"{label}-{spec.name}"))
    return cases


class TestTracerAgreement:
    """The routing-agnostic tracer equals the single-path one bit for bit
    on every deterministically routed network, so either may stand in for
    the other."""

    @pytest.mark.parametrize("build,spec", _single_path_cases())
    def test_masked_equals_single_path(self, build, spec):
        from repro.traffic.flows import single_path_flows

        topology = build()
        assert _flow_fields(masked_channel_flows(topology, spec)) == _flow_fields(
            single_path_flows(topology, spec)
        )


class TestPartitionCache:
    def test_partition_is_traced_once(self, monkeypatch):
        import repro.traffic.flows as traffic_flows
        from repro.design import clear_metrics_cache, design_family
        from repro.design import families

        families._cached_masked_flows.cache_clear()
        traced = []
        real = traffic_flows.masked_channel_flows

        def counting(*args, **kwargs):
            traced.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(traffic_flows, "masked_channel_flows", counting)
        # e-cube routing cannot route around router 0's dimension-0 link.
        faults = FaultSpec(dead_links=("up:1:0",))
        fam = design_family("hypercube")
        raised = []
        for flits in (16, 32, None):
            if flits is None:
                clear_metrics_cache()
                flits = 16
            with pytest.raises(PartitionedNetworkError) as info:
                fam.evaluator({"dimension": 2}, None, flits, faults=faults)
            raised.append(info.value)
        assert len(traced) == 1
        assert len({id(exc) for exc in raised}) == 3
        assert len({str(exc) for exc in raised}) == 1
        assert "no surviving route" in str(raised[0])


class TestFamilyMatrix:
    @pytest.mark.parametrize(
        "shape,dead", FAMILY_MATRIX, ids=[s["topology"] for s, _ in FAMILY_MATRIX]
    )
    def test_model_and_batch_bit_identical_under_faults(self, shape, dead):
        runner = Runner()
        scenario = scenario_for(shape, dead)
        model = runner.run(scenario.with_backend("model"))
        batch = runner.run(scenario.with_backend("batch"))
        assert (
            model.metrics["point"]["latency"] == batch.metrics["point"]["latency"]
        )
        assert (
            model.metrics["saturation"]["flit_load"]
            == batch.metrics["saturation"]["flit_load"]
        )
        faults = model.metrics["faults"]
        assert faults["dead_links"] == [dead]

    @pytest.mark.parametrize(
        "shape",
        [s for s, _ in FAMILY_MATRIX[:2]],
        ids=[s["topology"] for s, _ in FAMILY_MATRIX[:2]],
    )
    def test_dead_network_link_costs_capacity(self, shape):
        # For the tree families the dead up link removes real bandwidth:
        # the degraded fabric must saturate strictly earlier.
        runner = Runner()
        nominal = runner.run(scenario_for(shape, None))
        degraded = runner.run(scenario_for(shape, "up:1:0"))
        assert (
            degraded.metrics["saturation"]["flit_load"]
            < nominal.metrics["saturation"]["flit_load"]
        )

    def test_bft_simulation_matches_model_on_degraded_fabric(self):
        runner = Runner()
        probe = runner.run(scenario_for(dict(topology="bft", num_processors=16), "up:1:0"))
        sat = probe.metrics["saturation"]["flit_load"]
        scenario = scenario_for(
            dict(topology="bft", num_processors=16),
            "up:1:0",
            flit_load=0.5 * sat,
            replications=3,
            seed=11,
        )
        model = runner.run(scenario.with_backend("model"))
        sim = runner.run(scenario.with_backend("simulate"))
        m = model.metrics["point"]["latency"]
        s = sim.metrics["point"]["latency"]
        assert abs(m - s) / s < 0.10
        health = sim.metrics["replication_health"]
        assert health["completed"] == health["requested"] == 3
        assert sim.metrics["faults"]["dead_links"] == ["up:1:0"]

    def test_partitioning_scenario_raises_everywhere(self):
        scenario = scenario_for(
            dict(topology="hypercube", num_processors=4, dimension=2), "up:1:0"
        )
        runner = Runner()
        for backend in ("model", "batch", "simulate"):
            with pytest.raises(PartitionedNetworkError):
                runner.run(scenario.with_backend(backend))


class TestScenarioFaults:
    def test_trivial_faults_canonicalized_to_none(self):
        assert Scenario(faults={}).faults is None
        assert Scenario(faults={"dead_links": []}).faults is None

    def test_faults_survive_json_round_trip(self):
        sc = Scenario(faults={"dead_links": ["up:1:0"]})
        again = Scenario.from_json(sc.to_json())
        assert again.fault_spec() == sc.fault_spec()
        assert "faults(" in sc.describe()

    def test_bad_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(faults={"dead_links": ["sideways:0:0"]})


class TestTrivialFaultSpecIsNominal:
    @pytest.mark.parametrize(
        "shape",
        [s for s, _ in FAMILY_MATRIX] + [dict(topology="bft", num_processors=64)],
        ids=[s["topology"] for s, _ in FAMILY_MATRIX] + ["bft64"],
    )
    def test_evaluator_answers_equal_the_fault_free_ones(self, shape):
        from repro.core.throughput import saturation_injection_rate
        from repro.design.families import design_family

        flits = 16
        scenario = Scenario(message_flits=flits, **shape)
        fam, params = design_family(scenario.topology), scenario.family_params()
        nominal = fam.evaluator(params, None, flits, faults=None)
        trivial = fam.evaluator(params, None, flits, faults=FaultSpec())
        sat = saturation_injection_rate(nominal, flits)
        assert saturation_injection_rate(trivial, flits) == sat
        rates = np.linspace(0.0, 1.2 * sat.injection_rate, 16)
        assert np.array_equal(
            trivial.latency_batch(rates, flits), nominal.latency_batch(rates, flits)
        )


class TestDesignFaults:
    def test_requirements_fault_spec(self):
        from repro.design import Requirements

        req = Requirements(
            demand_flit_load=0.02,
            latency_slo=75.0,
            survives_faults=2,
            fault_seed=9,
        )
        spec = req.fault_spec()
        assert spec.random_link_failures == 2 and spec.seed == 9
        assert (
            Requirements(demand_flit_load=0.02, latency_slo=75.0).fault_spec()
            is None
        )
        with pytest.raises(ConfigurationError):
            Requirements(
                demand_flit_load=0.02, latency_slo=75.0, survives_faults=-1
            )

    def test_explore_marks_partitioned_candidates(self):
        from repro.design import DesignSpace, FamilySpace, Requirements, explore
        from repro.design.evaluate import clear_metrics_cache

        clear_metrics_cache()
        space = DesignSpace(
            families=(FamilySpace.build("bft", processors=(16,)),),
            message_lengths=(16,),
        )
        # Seed 7 draws a level-1 *down* link on the 16-PE BFT: minimal
        # fault-oblivious routing cannot route around it, so the candidate
        # must be reported as partitioned rather than silently passing.
        result = explore(
            space,
            Requirements(
                demand_flit_load=0.02,
                survives_faults=1,
                fault_seed=7,
                latency_slo=200.0,
            ),
        )
        (ev,) = result.evaluations
        assert ev.degraded is None
        assert any("partitioned" in v for v in ev.violations)
        assert result.to_json()["requirements"]["survives_faults"] == 1

    def test_explore_survivable_fault_degrades_metrics(self):
        from repro.design import DesignSpace, FamilySpace, Requirements, explore
        from repro.design.evaluate import clear_metrics_cache

        clear_metrics_cache()
        space = DesignSpace(
            families=(FamilySpace.build("bft", processors=(16,)),),
            message_lengths=(16,),
        )
        nominal = explore(
            space, Requirements(demand_flit_load=0.02, latency_slo=200.0)
        )
        # Seed 20 draws a redundant up link (verified deterministic): the
        # fabric survives with strictly less headroom.
        survived = explore(
            space,
            Requirements(
                demand_flit_load=0.02,
                survives_faults=1,
                fault_seed=20,
                latency_slo=200.0,
            ),
        )
        (ev,) = survived.evaluations
        assert ev.degraded is not None
        (nom_ev,) = nominal.evaluations
        assert (
            ev.degraded.saturation_flit_load < nom_ev.metrics.saturation_flit_load
        )


class TestRegistryRobustness:
    def _seed_registry(self, tmp_path):
        registry = RunRegistry(tmp_path)
        runner = Runner(registry=registry)
        result = runner.run(
            scenario_for(dict(topology="bft", num_processors=16), None)
        )
        return registry, result

    def test_corrupt_lines_skipped_counted_warned_once(self, tmp_path):
        registry, result = self._seed_registry(tmp_path)
        with registry.records_path.open("a", encoding="utf-8") as fh:
            fh.write('{"truncated": \n')
            fh.write("[1, 2, 3]\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert registry.ids() == [result.run_id]
        assert registry.skipped_corrupt == 2
        assert len(caught) == 1
        assert "doctor" in str(caught[0].message)
        # list/diff keep working end-to-end
        assert registry.load("latest").run_id == result.run_id
        diff = registry.diff(result.run_id, "latest")
        assert diff is not None

    def test_doctor_reports_and_quarantines(self, tmp_path):
        registry, result = self._seed_registry(tmp_path)
        with registry.records_path.open("a", encoding="utf-8") as fh:
            fh.write("garbage line\n")
        report = registry.doctor()
        assert not report.healthy
        assert report.ok == 1 and len(report.corrupt) == 1
        assert report.quarantined == 0  # report-only by default
        quarantined = registry.doctor(quarantine=True)
        assert quarantined.quarantined == 1
        assert registry.quarantine_path.read_text().strip() == "garbage line"
        after = registry.doctor()
        assert after.healthy and after.ok == 1
        assert registry.load(result.run_id).run_id == result.run_id

    def test_doctor_empty_registry(self, tmp_path):
        report = RunRegistry(tmp_path).doctor()
        assert report.healthy and report.total_records == 0


class TestHotspotHardening:
    @pytest.mark.parametrize("bad", ["0.5", None, True, float("nan"), 1.5])
    def test_bad_fraction_is_configuration_error(self, bad):
        with pytest.raises(ConfigurationError):
            HotspotSpec(fraction=bad)

    def test_bool_target_rejected(self):
        with pytest.raises(ConfigurationError):
            HotspotSpec(target=True)


class TestConvergenceDiagnostics:
    def test_fixed_point_error_carries_diagnostics(self):
        with pytest.raises(ConvergenceError) as excinfo:
            fixed_point(lambda x: -x, np.array([1.0, 2.0]), max_iter=50)
        err = excinfo.value
        assert err.iterations == 50
        assert err.residual > 0
        assert err.worst_component == 1
        assert "residual" in str(err)


class _CrashOnFirstSeed(EventDrivenWormholeSimulator):
    """Simulator that crashes on the first seed it ever sees."""

    crashed: list = []

    def run(self):
        if not self.crashed:
            self.crashed.append(self.config.seed)
            raise RuntimeError("injected crash")
        return super().run()


class TestReplicationRescue:
    def test_crashed_replication_is_rescued_deterministically(self):
        _CrashOnFirstSeed.crashed = []
        topo = ButterflyFatTree(16)
        wl = Workload.from_flit_load(0.04, 16)
        cfg = SimConfig(warmup_cycles=200.0, measure_cycles=800.0, seed=3)
        rep = run_replications(
            topo, wl, cfg, replications=2, simulator_cls=_CrashOnFirstSeed
        )
        assert len(rep.results) == 2
        assert rep.rescued == 1
        assert rep.failures == ()

    def test_persistent_crash_recorded_not_raised(self):
        # First slot fails its original seed AND both rescue seeds; second
        # slot runs clean. The aggregate degrades to one replication and
        # records the dead slot instead of raising.
        crash_budget = [3]

        class CrashThreeTimes(EventDrivenWormholeSimulator):
            def run(self):
                if crash_budget[0] > 0:
                    crash_budget[0] -= 1
                    raise RuntimeError("hardware on fire")
                return super().run()

        topo = ButterflyFatTree(16)
        wl = Workload.from_flit_load(0.04, 16)
        cfg = SimConfig(warmup_cycles=200.0, measure_cycles=800.0, seed=3)
        rep = run_replications(
            topo, wl, cfg, replications=2, simulator_cls=CrashThreeTimes
        )
        assert len(rep.results) == 1
        assert len(rep.failures) == 1
        assert rep.failures[0].attempts == 3
        assert "hardware on fire" in rep.failures[0].error

    def test_all_crash_raises_last_error(self):
        class AlwaysCrash(EventDrivenWormholeSimulator):
            def run(self):
                raise RuntimeError("hardware on fire")

        topo = ButterflyFatTree(16)
        wl = Workload.from_flit_load(0.04, 16)
        cfg = SimConfig(warmup_cycles=200.0, measure_cycles=800.0, seed=3)
        with pytest.raises(RuntimeError):
            run_replications(
                topo, wl, cfg, replications=1, simulator_cls=AlwaysCrash
            )

    def test_configuration_error_not_retried(self):
        calls = []

        class BadConfig(EventDrivenWormholeSimulator):
            def run(self):
                calls.append(1)
                raise ConfigurationError("deterministically wrong")

        topo = ButterflyFatTree(16)
        wl = Workload.from_flit_load(0.04, 16)
        cfg = SimConfig(warmup_cycles=200.0, measure_cycles=800.0, seed=3)
        with pytest.raises(ConfigurationError):
            run_replications(
                topo, wl, cfg, replications=2, simulator_cls=BadConfig
            )
        assert len(calls) == 1


class TestFaultCli:
    def test_run_with_kill_links(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--topology",
                "bft",
                "-n",
                "16",
                "--kill-links",
                "up:1:0",
                "--points",
                "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["faults"]["dead_links"] == ["up:1:0"]

    def test_partitioning_kill_is_exit_2(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--topology",
                "hypercube",
                "-n",
                "4",
                "--dimension",
                "2",
                "--kill-links",
                "up:1:0",
                "--points",
                "0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_link_ref_is_exit_2(self, capsys):
        from repro.cli import main

        assert main(["run", "--kill-links", "bogus", "--points", "0"]) == 2
        assert "direction:level:index" in capsys.readouterr().err

    def test_runs_doctor_cli(self, tmp_path, capsys):
        from repro.cli import main

        registry = str(tmp_path)
        assert (
            main(
                [
                    "run",
                    "--topology",
                    "bft",
                    "-n",
                    "16",
                    "--points",
                    "0",
                    "--save",
                    "--registry",
                    registry,
                ]
            )
            == 0
        )
        with (tmp_path / "runs.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        capsys.readouterr()
        assert main(["runs", "doctor", "--registry", registry]) == 0
        assert "1 corrupt" in capsys.readouterr().out
        assert (
            main(["runs", "doctor", "--registry", registry, "--quarantine"]) == 0
        )
        capsys.readouterr()
        assert main(["runs", "list", "--registry", registry]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_bad_hotspot_fraction_is_exit_2(self, capsys):
        from repro.cli import main

        assert main(["model", "--pattern", "hotspot", "--hotspot-fraction", "1.5"]) == 2
        assert "hotspot_fraction" in capsys.readouterr().err


class TestFaultExperiment:
    def test_quick_mode_rows(self):
        from repro.experiments import run_fault_degradation

        result = run_fault_degradation()
        assert len(result.rows) == 12  # 4 families x k in {0, 1, 2}
        by_family = {}
        for row in result.rows:
            by_family.setdefault(row.topology, []).append(row)
        for family, rows in by_family.items():
            assert rows[0].failures == 0 and rows[0].status == "ok"
            assert rows[0].retained == pytest.approx(1.0)
        # The unidirectional torus has no path diversity: any network link
        # failure must partition it, and the experiment says so.
        torus = by_family["kary-ncube"]
        assert all(r.status == "partitioned" for r in torus[1:])
        assert "partitioned" in result.render()
        payload = result.to_json()
        assert payload["fault_seed"] == 7
