"""Smoke tests for the extension experiments (GFT, BUF) at tiny scale."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    ExperimentMode,
    generalized_cells,
    run_buffering,
    run_validation,
)
from repro.runs import run

TINY = ExperimentMode(full=False)
FULL = ExperimentMode(full=True)


class TestGeneralizedExperiment:
    def test_cells(self):
        cells = generalized_cells(TINY)
        shapes = ((4, 2, 3), (4, 3, 3), (4, 4, 3), (8, 2, 2), (2, 2, 4))
        assert [
            (
                c.scenario.family_params(),
                c.scenario.num_processors,
                c.load_fraction,
                c.scenario.seed,
            )
            for c in cells
        ] == [
            ({"children": ch, "parents": p, "levels": n}, ch**n, f, 123 + 10 * ch + p)
            for ch, p, n in shapes
            for f in (0.3, 0.6)
        ]
        assert all(c.scenario.message_flits == 32 for c in cells)
        assert all(c.simulators == ("event",) for c in cells)
        full = [c.scenario.levels for c in generalized_cells(FULL)]
        assert full == [4, 4, 4, 4, 4, 4, 3, 3, 6, 6]

    def test_small_family(self):
        cells = [
            c for c in generalized_cells(TINY)
            if c.scenario.children == 4 and c.scenario.parents in (2, 3)
        ]
        res = run_validation(cells=cells, experiment_mode=TINY)
        assert len(res.rows) == 4
        for row in res.rows:
            assert math.isfinite(row.reference_latency)
            assert abs(row.model_err) < 0.08
        assert "(4,3)" in res.render()

    def test_redundancy_buys_saturation(self):
        sats = [
            run(c.scenario).metrics["saturation"]["flit_load"]
            for c in generalized_cells(TINY)
            if c.scenario.children == 4 and c.load_fraction == 0.3
        ]
        assert len(sats) == 3
        assert sats == sorted(sats)

    def test_row_shape(self):
        cells = [
            c for c in generalized_cells(TINY)
            if c.scenario.children == 2 and c.load_fraction == 0.3
        ]
        row = run_validation(cells=cells, experiment_mode=TINY).rows[0]
        assert row.scenario.children == 2 and row.scenario.parents == 2
        assert row.scenario.flit_load == 0.3 * row.saturation_flit_load


class TestBufferingExperiment:
    def test_small_instance(self):
        res = run_buffering(
            num_processors=16,
            message_flits=16,
            depths=(1, 2),
            experiment_mode=TINY,
        )
        assert len(res.rows) == 4
        for row in res.rows:
            assert row.buffered[1] > row.buffered[2]
            assert row.buffered[2] == pytest.approx(row.event_sim_latency, rel=0.08)
        assert "Buffering sensitivity" in res.render()

    def test_torus_rows(self):
        res = run_buffering(
            num_processors=16,
            message_flits=16,
            depths=(2,),
            experiment_mode=TINY,
        )
        for trow in res.torus_rows:
            assert trow.vc_censored == 0
            assert math.isfinite(trow.vc_latency)
