"""Smoke tests for the experiment harness (tiny configurations)."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    ExperimentMode,
    default_cells,
    full_mode,
    mode,
    relative_error,
    run_ablations,
    run_fig3,
    run_other_networks,
    run_scaling,
    run_throughput_table,
    run_validation,
    write_report,
)
from repro.core.variants import ModelVariant

TINY = ExperimentMode(full=False)


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
    def test_small_instance(self):
        res = run_scaling(sizes=(16, 64), experiment_mode=TINY)
        assert len(res.rows) == 6
        finite = [r for r in res.rows if math.isfinite(r.sim_latency)]
        assert len(finite) == 6
        for r in finite:
            assert abs(r.rel_err) < 0.12
        assert "Scaling" in res.render()


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
    def test_general_model_beats_baseline(self):
        res = run_other_networks(dimension=5, experiment_mode=TINY)
        gen_errs = [abs(r.general_err) for r in res.hypercube_rows if math.isfinite(r.general_err)]
        base_errs = [abs(r.baseline_err) for r in res.hypercube_rows if math.isfinite(r.baseline_err)]
        assert sum(gen_errs) < sum(base_errs)
        assert "hypercube" in res.render()

    def test_torus_rows_present(self):
        res = run_other_networks(dimension=5, experiment_mode=TINY)
        assert len(res.torus_rows) == 3


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
