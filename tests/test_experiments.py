"""Smoke tests for the experiment harness (tiny configurations)."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    ExperimentMode,
    default_cells,
    full_mode,
    generalized_cells,
    mode,
    other_networks_cells,
    relative_error,
    run_ablations,
    run_fig3,
    run_throughput_table,
    run_validation,
    scaling_cells,
    write_report,
)
from repro.core.variants import ModelVariant
from repro.errors import ConfigurationError
from repro.experiments import validate

TINY = ExperimentMode(full=False)
FULL = ExperimentMode(full=True)


class TestCommon:
    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert math.isnan(relative_error(1.0, 0.0))
        assert math.isnan(relative_error(1.0, math.inf))
        assert math.isinf(relative_error(math.inf, 1.0))

    def test_mode_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_mode()
        assert mode().label == "quick"
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_mode()
        assert mode().label == "full"
        assert mode().replications == 3

    def test_write_report(self, tmp_path):
        p = write_report("unit", "hello", directory=tmp_path)
        assert p.read_text() == "hello\n"


class TestFig3:
    def test_small_instance(self):
        res = run_fig3(
            num_processors=16,
            message_lengths=(16,),
            n_points=3,
            experiment_mode=TINY,
        )
        assert len(res.series) == 1
        s = res.series[0]
        assert len(s.model.flit_loads) == 3
        # below-saturation agreement on this tiny instance
        assert s.mean_abs_error_below() < 0.15
        out = res.render()
        assert "Figure 3" in out and "Summary" in out

    def test_rows_structure(self):
        res = run_fig3(
            num_processors=16, message_lengths=(16,), n_points=3, experiment_mode=TINY
        )
        rows = res.series[0].rows()
        assert all(len(r) == 5 for r in rows)
        assert all(r[0] == 16 for r in rows)


class TestThroughputTable:
    def test_small_instance(self):
        res = run_throughput_table(
            sizes=(16,), message_lengths=(16,), experiment_mode=TINY
        )
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.model_saturation > 0
        assert row.sim_saturation > 0
        # Model is conservative; sim saturation within a broad band.
        assert 0.7 < row.sim_saturation / row.model_saturation < 1.8
        assert "Saturation" in res.render()


class TestScaling:
    def test_cells(self):
        cells = scaling_cells(TINY)
        assert [
            (c.scenario.num_processors, c.load_fraction, c.scenario.seed)
            for c in cells
        ] == [(n, f, 31 + n) for n in (16, 64, 256) for f in (0.05, 0.4, 0.75)]
        for c in cells:
            assert c.scenario.topology == "bft"
            assert c.scenario.message_flits == 32
            assert c.simulators == ("event",)
        assert [c.scenario.num_processors for c in scaling_cells(FULL)][-1] == 1024

    def test_small_instance(self):
        cells = [c for c in scaling_cells(TINY) if c.scenario.num_processors <= 64]
        res = run_validation(cells=cells, experiment_mode=TINY)
        assert len(res.rows) == 6
        finite = [r for r in res.rows if math.isfinite(r.reference_latency)]
        assert len(finite) == 6
        for r in finite:
            assert abs(r.model_err) < 0.12
        assert "bft" in res.render()


class TestAblations:
    def test_paper_variant_wins(self):
        res = run_ablations(
            num_processors=64,
            message_flits=16,
            n_points=4,
            experiment_mode=TINY,
        )
        by_name = {r.variant: r for r in res.rows}
        assert by_name["paper"].mean_abs_err < by_name["no-multiserver"].mean_abs_err
        assert by_name["paper"].mean_abs_err < by_name["naive"].mean_abs_err
        assert "ablations" in res.render().lower()

    def test_custom_variant_list(self):
        res = run_ablations(
            num_processors=64,
            message_flits=16,
            n_points=3,
            variants=(ModelVariant.paper(),),
            experiment_mode=TINY,
        )
        assert len(res.rows) == 1


class TestOtherNetworks:
    def test_cells(self):
        cells = other_networks_cells(TINY)
        hypercube = [c for c in cells if c.scenario.topology == "hypercube"]
        torus = [c for c in cells if c.scenario.topology == "kary-ncube"]
        assert len(cells) == len(hypercube) + len(torus) == 8
        assert {c.scenario.num_processors for c in hypercube} == {64}
        assert [c.load_fraction for c in hypercube] == pytest.approx(
            [0.1, 0.275, 0.45, 0.625, 0.8]
        )
        assert {c.scenario.seed for c in hypercube} == {55}
        assert [c.load_fraction for c in torus] == [0.0175, 0.035, 0.07]
        assert {
            (c.scenario.num_processors, c.scenario.radix, c.scenario.seed)
            for c in torus
        } == {(64, 8, 56)}
        assert all(c.simulators == ("event",) for c in cells)
        assert all(c.scenario.message_flits == 32 for c in cells)
        full = other_networks_cells(FULL)
        assert sum(c.scenario.num_processors == 256 for c in full) == 8

    def test_general_model_beats_baseline(self):
        cells = [
            c for c in other_networks_cells(TINY) if c.scenario.topology == "hypercube"
        ]
        res = run_validation(cells=cells, experiment_mode=TINY)
        gen_errs = [abs(r.model_err) for r in res.rows if math.isfinite(r.model_err)]
        base_errs = [abs(r.baseline_err) for r in res.rows if math.isfinite(r.baseline_err)]
        assert sum(gen_errs) < sum(base_errs)
        assert "hypercube" in res.render()

    def test_torus_rows_present(self):
        cells = [
            c for c in other_networks_cells(TINY) if c.scenario.topology == "kary-ncube"
        ]
        res = run_validation(cells=cells, experiment_mode=TINY)
        assert len(res.rows) == 3
        # Dally's analysis is both the model and the prior art of the torus.
        assert all(r.model_latency == r.baseline_latency for r in res.rows)
        # 0.0175 of the Eq. 26 saturation (2/7 for 32-flit worms) is 0.005.
        assert res.rows[0].scenario.flit_load == pytest.approx(0.005, rel=1e-6)
        assert "k=8" in res.render()


class TestValidation:
    def test_default_cells_cover_the_three_retired_experiments(self):
        cells = default_cells(TINY)
        shapes = [
            (c.scenario.topology, c.scenario.num_processors, c.scenario.pattern)
            for c in cells
        ]
        assert len(shapes) == len(set(shapes)) == 9
        # every family shape, uniform and nominal
        assert {t for t, _, _ in shapes} == {
            "bft", "generalized-fattree", "hypercube", "kary-ncube"
        }
        # every pattern of the 64-PE fat-tree
        assert {p for t, n, p in shapes if (t, n) == ("bft", 64)} == {
            "uniform", "hotspot", "transpose", "bit-reversal", "tornado"
        }
        for c in cells:
            assert c.scenario.faults is None and c.scenario.seed == 23
            torus = c.scenario.topology == "kary-ncube"
            assert c.load_fraction == (0.1 if torus else 0.5)
            crosscheck = c.scenario.topology == "bft" and c.scenario.pattern == "uniform"
            assert c.simulators == (("event", "flit") if crosscheck else ("event",))

    def test_rows_match_the_batch_backend_exactly(self):
        from repro.runs import run

        cells = [
            c for c in default_cells(TINY)
            if c.scenario.topology in ("bft", "hypercube")
            and c.scenario.num_processors == 16
        ]
        res = run_validation(cells=cells, experiment_mode=TINY)
        assert len(res.rows) == 2
        for row in res.rows:
            record = run(row.scenario.with_backend("batch"))
            assert row.model_latency == record.metrics["point"]["latency"]
            assert row.saturation_flit_load == record.metrics["saturation"]["flit_load"]
            assert row.scenario.flit_load == 0.5 * row.saturation_flit_load
            assert row.baseline_latency > row.model_latency
        bft = res.rows[0]
        assert list(bft.sim_latency) == ["event", "flit"]
        assert all(math.isfinite(lat) for lat in bft.sim_latency.values())
        assert abs(bft.error(bft.sim_latency["flit"])) < 0.05
        assert "flit err" in res.render()

    def test_cell_without_a_simulator_is_rejected(self):
        scenario = default_cells(TINY)[0].scenario
        with pytest.raises(ConfigurationError):
            validate.ValidationCell(scenario, simulators=())

    def test_cells_run_no_model_backend(self, monkeypatch):
        # The simulate record carries the model prediction, so a cell is
        # one batch probe, one baseline run and one run per simulator.
        backends = []

        class Recording(validate.Runner):
            def run(self, scenario):
                backends.append(scenario.backend)
                return super().run(scenario)

        monkeypatch.setattr(validate, "Runner", Recording)
        cells = [default_cells(TINY)[0]]
        assert cells[0].simulators == ("event", "flit")
        run_validation(cells=cells, experiment_mode=TINY)
        assert backends == ["batch", "baseline", "simulate", "simulate"]

    def test_shape_column_tells_shapes_apart(self):
        from repro.runs import Scenario

        cells = [
            c for c in generalized_cells(TINY)
            if c.load_fraction == 0.3 and c.scenario.num_processors == 64
        ]
        res = validate.ValidationResult(
            rows=tuple(
                validate.ValidationRow(
                    scenario=c.scenario,
                    load_fraction=c.load_fraction,
                    saturation_flit_load=1.0,
                    model_latency=1.0,
                    baseline_latency=1.0,
                    sim_latency={"event": 1.0},
                )
                for c in cells
            ),
            mode_label="quick",
        )
        lines = res.render().splitlines()
        assert "torus" not in lines[0]
        assert lines[1].split(" | ")[2].strip() == "shape"
        body = lines[3:]
        assert len(body) == len(set(body)) == 4
        for shape in ("(4,2)", "(4,3)", "(4,4)", "(8,2)"):
            assert sum(shape in line for line in body) == 1
        torus = Scenario(topology="kary-ncube", num_processors=64, radix=8)
        assert validate._shape(torus) == "k=8"
        assert validate._shape(cells[0].scenario) == "(4,2)"
        assert validate._shape(Scenario(topology="bft", num_processors=64)) is None
