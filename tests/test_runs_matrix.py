"""Cross-backend acceptance matrix: every topology family × every backend.

``Scenario(topology=…)`` accepts all four families, every (family ×
backend) pair returns the shared point/saturation/curve metric layout,
``model`` answers as an alias of ``batch`` on every family, records
round-trip losslessly through the registry, and the simulate-vs-model
crosscheck stays bounded (half saturation for the families whose
simulators run there; low load for the virtual-channel-less torus,
mirroring ``repro experiment validate``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.runs import BACKENDS, TOPOLOGIES, RunRegistry, RunResult, Runner, Scenario, run

#: One tiny representative per family (sized so every backend answers in
#: well under a second; the simulate backend uses short windows below).
FAMILY_SCENARIOS = {
    "bft": dict(topology="bft", num_processors=16),
    "generalized-fattree": dict(
        topology="generalized-fattree", num_processors=8, children=2, parents=2
    ),
    "hypercube": dict(topology="hypercube", num_processors=16),
    "kary-ncube": dict(topology="kary-ncube", num_processors=9, radix=3),
}


def family_scenario(topology: str, **overrides) -> Scenario:
    defaults = dict(
        message_flits=16,
        flit_load=0.03,
        sweep_points=4,
        replications=2,
        warmup_cycles=300.0,
        measure_cycles=1200.0,
        seed=13,
    )
    defaults.update(FAMILY_SCENARIOS[topology])
    defaults.update(overrides)
    return Scenario(**defaults)


def test_the_matrix_is_complete():
    assert set(FAMILY_SCENARIOS) == set(TOPOLOGIES)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestAcceptanceMatrix:
    def test_layout_roundtrip_and_registry(self, topology, backend, tmp_path):
        registry = RunRegistry(tmp_path)
        scenario = family_scenario(topology, backend=backend, label="matrix")
        result = Runner(registry=registry).run(scenario)

        # --- the shared metric layout -----------------------------------
        metrics = result.metrics
        assert metrics["family"]["name"] == topology
        assert metrics["point"]["flit_load"] == scenario.flit_load
        assert metrics["point"]["latency"] > 0
        if backend == "simulate":
            assert metrics["saturation"] is None and metrics["curve"] is None
            assert len(metrics["replications"]) == 2
            assert metrics["point"]["model_prediction"] > 0
        else:
            assert metrics["saturation"]["flit_load"] > 0
            assert len(metrics["curve"]["latencies"]) == 4
            assert metrics["engine"] == "batch"
            assert isinstance(metrics["variant"], str)

        # --- lossless JSON round trip and registry save/load ------------
        assert RunResult.from_json(result.to_json()) == result
        assert registry.load(result.run_id) == result
        assert registry.query(topology=topology, backend=backend) == [result]

        # --- and the self-diff is empty ----------------------------------
        assert registry.diff(result.run_id, result.run_id).changed == ()


class TestPerFamilyParity:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_model_and_batch_bit_identical(self, topology):
        # ``model`` is an alias of ``batch`` on every family.
        scenario = family_scenario(topology, backend="model")
        a = run(scenario)
        b = run(scenario.with_backend("batch"))
        assert a.metrics["engine"] == b.metrics["engine"] == "batch"
        for field in ("point", "saturation", "variant", "family"):
            assert a.metrics[field] == b.metrics[field], field
        a.metrics["curve"].pop("label")
        b.metrics["curve"].pop("label")
        assert a.metrics["curve"] == b.metrics["curve"]

    @pytest.mark.parametrize(
        "topology", ["bft", "generalized-fattree", "hypercube"]
    )
    def test_baseline_differs_from_model(self, topology):
        scenario = family_scenario(topology, sweep_points=0)
        paper = run(scenario)
        prior = run(scenario.with_backend("baseline"))
        assert prior.metrics["variant"] != paper.metrics["variant"]
        assert prior.metrics["point"]["latency"] != paper.metrics["point"]["latency"]

    def test_torus_baseline_is_its_own_model(self):
        # Dally's analysis *is* the prior art for the k-ary n-cube: the
        # family's model and baseline coincide by design.
        scenario = family_scenario("kary-ncube", sweep_points=0)
        model = run(scenario)
        baseline = run(scenario.with_backend("baseline"))
        assert baseline.metrics["variant"] == model.metrics["variant"] == "dally"
        assert (
            baseline.metrics["point"]["latency"]
            == model.metrics["point"]["latency"]
        )

    def test_registry_diff_across_families(self, tmp_path):
        registry = RunRegistry(tmp_path)
        runner = Runner(registry=registry)
        a = runner.run(family_scenario("bft", sweep_points=0))
        b = runner.run(family_scenario("hypercube", sweep_points=0))
        diff = registry.diff(a.run_id, b.run_id)
        keys = {d.key for d in diff.deltas}
        # The shared layout diffs leaf-for-leaf across families ...
        assert {"point.latency", "saturation.flit_load"} <= keys
        # ... while family-specific parameters surface as one-sided keys.
        assert "family.params.processors" in diff.only_a
        assert "family.params.dimension" in diff.only_b


class TestSimulateCrosscheck:
    """Simulate-vs-model agreement, mirroring the ≤10% traffic gate.

    Fat-trees and the hypercube are checked at *half saturation*.  The
    torus runs at 10% of saturation: wormhole rings deadlock without
    virtual channels (Dally & Seitz 1987), which the simulators do not
    model — the same restriction the validation's torus cells apply.
    """

    @pytest.mark.parametrize(
        "topology,fraction",
        [
            ("bft", 0.5),
            ("generalized-fattree", 0.5),
            ("hypercube", 0.5),
            ("kary-ncube", 0.1),
        ],
    )
    def test_half_saturation_crosscheck(self, topology, fraction):
        probe = run(family_scenario(topology, backend="batch", sweep_points=0))
        sat = probe.metrics["saturation"]["flit_load"]
        scenario = dataclasses.replace(
            family_scenario(topology, backend="simulate", sweep_points=0),
            flit_load=fraction * sat,
            replications=1,
            warmup_cycles=2_000.0,
            measure_cycles=8_000.0,
            seed=7,
        )
        result = run(scenario)
        point = result.metrics["point"]
        assert point["stable"] is True
        assert point["model_prediction"] == pytest.approx(
            point["latency"], rel=0.10
        )
