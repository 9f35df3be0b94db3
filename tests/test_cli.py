"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core import ButterflyFatTreeModel


def _run_json(capsys, argv):
    """The JSON record ``repro run ARGV --json`` prints."""
    import json

    assert main(["run", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    @pytest.mark.parametrize(
        "verb",
        [
            "sweep",
            "saturation",
            "simulate",
            "experiment crosscheck",
            "experiment traffic",
            "experiment topologies",
        ],
    )
    def test_retired_verbs_rejected(self, verb):
        # Retired in 3.0.0: `repro run` answers the first three.  Retired in
        # 5.0.0: `repro experiment validate` answers the three experiments.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(verb.split())
        assert exc.value.code == 2

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.name == "fig3"
        # 6.0.0: these three are validation cell lists under their old names.
        for name in ("scaling", "generalized", "other-networks"):
            assert build_parser().parse_args(["experiment", name]).name == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])


class TestCommands:
    def test_model(self, capsys):
        assert main(["model", "-n", "64", "-f", "16", "-l", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "injection_wait" in out
        assert "latency" in out

    def test_model_bad_size_is_clean_error(self, capsys):
        # Invalid arguments exit with the argparse convention (status 2)
        # and a one-line message, never a traceback.
        assert main(["model", "-n", "100"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_sweep(self, capsys):
        # `run --points N` is the latency-vs-load table of the retired
        # `sweep` verb: the Figure-3 grid up to 98% of saturation.
        from repro.core import latency_sweep, load_grid_to_saturation

        data = _run_json(capsys, ["-n", "64", "-f", "16", "--points", "4"])
        model = ButterflyFatTreeModel(64)
        curve = latency_sweep(model, 16, load_grid_to_saturation(model, 16, n_points=4))
        assert data["metrics"]["curve"]["flit_loads"] == curve.flit_loads.tolist()
        assert data["metrics"]["curve"]["latencies"] == curve.latencies.tolist()

    def test_saturation(self, capsys):
        # `run --points 0` reports the Eq. 26 point of the retired
        # `saturation` verb, one message length per run.
        from repro.core import saturation_injection_rate

        for flits in (16, 32):
            data = _run_json(capsys, ["-n", "64", "-f", str(flits), "--points", "0"])
            sat = saturation_injection_rate(ButterflyFatTreeModel(64), flits)
            assert data["metrics"]["saturation"]["flit_load"] == sat.flit_load
            assert data["metrics"]["curve"] is None

    def test_model_with_pattern(self, capsys):
        assert main(
            [
                "model",
                "-n",
                "16",
                "-f",
                "16",
                "-l",
                "0.05",
                "--pattern",
                "hotspot",
                "--hotspot-fraction",
                "0.2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "pattern=hotspot" in out
        assert "latency" in out

    def test_sweep_with_pattern(self, capsys):
        from repro.core import latency_sweep, load_grid_to_saturation
        from repro.design import design_family
        from repro.traffic import make_spec

        argv = ["-n", "16", "-f", "16", "--points", "4", "--pattern", "tornado"]
        data = _run_json(capsys, argv)
        tm = design_family("bft").evaluator({"processors": 16}, make_spec("tornado"), 16)
        curve = latency_sweep(tm, 16, load_grid_to_saturation(tm, 16, n_points=4))
        assert data["metrics"]["curve"]["latencies"] == curve.latencies.tolist()
        assert main(["run", *argv]) == 0
        assert "pattern=tornado" in capsys.readouterr().out

    def test_saturation_with_pattern(self, capsys):
        from repro.core import saturation_injection_rate
        from repro.design import design_family
        from repro.traffic import make_spec

        data = _run_json(
            capsys, ["-n", "16", "-f", "16", "--points", "0", "--pattern", "bit-reversal"]
        )
        tm = design_family("bft").evaluator(
            {"processors": 16}, make_spec("bit-reversal"), 16
        )
        sat = saturation_injection_rate(tm, 16)
        assert data["metrics"]["saturation"]["flit_load"] == sat.flit_load

    def test_simulate_with_pattern(self, capsys):
        rc = main(
            [
                "run",
                "--backend",
                "simulate",
                "--replications",
                "1",
                "--points",
                "0",
                "-n",
                "16",
                "-f",
                "16",
                "-l",
                "0.04",
                "--pattern",
                "transpose",
                "--warmup",
                "300",
                "--measure",
                "1200",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pattern=transpose" in out
        assert "point.model_prediction" in out

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model", "--pattern", "zipf"])

    @pytest.mark.parametrize("engine", ["event", "flit", "buffered"])
    def test_simulate_all_engines(self, capsys, engine):
        rc = main(
            [
                "run",
                "--backend",
                "simulate",
                "--replications",
                "1",
                "--points",
                "0",
                "-n",
                "16",
                "-f",
                "16",
                "-l",
                "0.05",
                "--simulator",
                engine,
                "--warmup",
                "300",
                "--measure",
                "1500",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "point.latency" in out and "point.model_prediction" in out

    def test_info(self, capsys):
        assert main(["info", "-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "links" in out and "<0,1>" in out

    def test_experiment_validate(self, capsys):
        import json

        from repro.experiments import default_cells

        assert main(["experiment", "validate", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment"] == "validate" and data["full"] is False
        table = data["rendered"].splitlines()
        assert table[0].startswith("Model vs simulation")
        rows = table[3:]  # title, header, rule
        assert len(rows) == len(default_cells())
        for family in ("bft", "generalized-fattree", "hypercube", "kary-ncube"):
            assert any(row.split("|")[0].strip() == family for row in rows)

    def test_experiment_full_flag_does_not_leak_into_the_environment(
        self, monkeypatch, capsys
    ):
        import os

        from repro import experiments

        seen = []

        class _Stub:
            def render(self):
                return "stub"

        def stub_runner():
            seen.append(os.environ.get("REPRO_FULL"))
            return _Stub()

        monkeypatch.setattr(experiments, "run_validation", stub_runner)
        for previous in (None, "0"):
            if previous is None:
                monkeypatch.delenv("REPRO_FULL", raising=False)
            else:
                monkeypatch.setenv("REPRO_FULL", previous)
            before = dict(os.environ)
            assert main(["experiment", "validate", "--full"]) == 0
            assert dict(os.environ) == before
        assert seen == ["1", "1"]
        assert capsys.readouterr().out == "stub\nstub\n"

    def test_cell_list_experiments_render_their_cells(self, monkeypatch, capsys):
        from repro import experiments

        seen = []

        class _Stub:
            def render(self):
                return "stub"

        def stub_runner(*, cells):
            seen.append(cells)
            return _Stub()

        monkeypatch.setattr(experiments, "run_validation", stub_runner)
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert main(["experiment", "generalized"]) == 0
        assert main(["experiment", "scaling", "--full"]) == 0
        assert seen[0] == experiments.generalized_cells()
        # The list is built inside --full: paper scale reaches 1024 PEs.
        assert seen[1][-1].scenario.num_processors == 1024
        assert capsys.readouterr().out == "stub\nstub\n"

    def test_patterns_lists_registry(self, capsys):
        from repro.traffic.spec import available_patterns

        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        for name in available_patterns():
            assert name in out

    def test_design_table(self, capsys):
        rc = main(
            [
                "design",
                "--families",
                "bft",
                "--sizes",
                "16,64",
                "--flits",
                "16",
                "--patterns",
                "uniform",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cheapest feasible" in out
        assert "Pareto frontier" in out

    def test_design_json(self, capsys):
        import json

        rc = main(
            [
                "design",
                "--families",
                "bft,hypercube",
                "--sizes",
                "16",
                "--flits",
                "16",
                "--patterns",
                "uniform",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert {e["family"] for e in data["evaluations"]} == {"bft", "hypercube"}
        assert data["cheapest_feasible"] is not None

    def test_design_drops_unrealizable_sizes(self, capsys):
        # 32 is a power of two but not of four: hypercube keeps it, bft drops it.
        rc = main(
            [
                "design",
                "--families",
                "bft,hypercube",
                "--sizes",
                "16,32",
                "--flits",
                "16",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dimension=5" in out
        assert "processors=32" not in out

    def test_design_large_exponent_sizes_realizable(self, capsys):
        # Exponent inversion must not cap out: 2**16 = 65536 dimensions=16.
        rc = main(
            [
                "design",
                "--families",
                "kary-ncube",
                "--radix",
                "2",
                "--sizes",
                "65536",
                "--flits",
                "16",
            ]
        )
        assert rc == 0
        assert "dimensions=16" in capsys.readouterr().out

    def test_design_no_realizable_size_is_clean_error(self, capsys):
        # An infeasible scenario is a usage error: status 2, one line.
        rc = main(["design", "--families", "bft", "--sizes", "32", "--flits", "16"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_design_bad_sizes_is_clean_error(self, capsys):
        rc = main(["design", "--families", "bft", "--sizes", "big", "--flits", "16"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_experiment_design(self, capsys):
        assert main(["experiment", "design"]) == 0
        assert "CM-5-class sizing" in capsys.readouterr().out


class TestJsonEverywhere:
    """Every data-producing subcommand shares one --json formatter."""

    def _json_out(self, capsys, argv):
        import json

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_model_json(self, capsys):
        data = self._json_out(
            capsys, ["model", "-n", "16", "-f", "16", "-l", "0.05", "--json"]
        )
        assert data["components"]["latency"] > 0
        assert data["num_processors"] == 16

    def test_sweep_json(self, capsys):
        data = self._json_out(
            capsys, ["run", "-n", "16", "-f", "16", "--points", "4", "--json"]
        )
        assert len(data["metrics"]["curve"]["flit_loads"]) == 4
        assert len(data["metrics"]["curve"]["latencies"]) == 4

    def test_saturation_json(self, capsys):
        data = self._json_out(
            capsys, ["run", "-n", "16", "-f", "32", "--points", "0", "--json"]
        )
        assert data["scenario"]["message_flits"] == 32
        assert data["metrics"]["saturation"]["flit_load"] > 0

    def test_simulate_json(self, capsys):
        data = self._json_out(
            capsys,
            [
                "run", "--backend", "simulate", "--replications", "1",
                "--points", "0", "-n", "16", "-f", "16", "-l", "0.04",
                "--warmup", "300", "--measure", "1200", "--json",
            ],
        )
        assert data["metrics"]["point"]["latency"] > 0
        assert "model_prediction" in data["metrics"]["point"]

    def test_info_json(self, capsys):
        data = self._json_out(capsys, ["info", "-n", "16", "--json"])
        assert data["processors"] == 16

    def test_patterns_json(self, capsys):
        from repro.traffic.spec import available_patterns

        data = self._json_out(capsys, ["patterns", "--json"])
        assert set(data["patterns"]) == set(available_patterns())


class TestRunCommand:
    def test_run_batch(self, capsys):
        rc = main(["run", "-n", "16", "-f", "16", "-l", "0.04", "--points", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=batch" in out
        assert "saturation.flit_load" in out

    def test_run_json_round_trips(self, capsys):
        import json

        from repro.runs import RunResult

        rc = main(
            ["run", "-n", "16", "-f", "16", "-l", "0.04", "--points", "0", "--json"]
        )
        assert rc == 0
        record = RunResult.from_json(json.loads(capsys.readouterr().out))
        assert record.scenario.num_processors == 16
        assert record.metrics["point"]["latency"] > 0

    def test_run_simulate_and_registry_roundtrip(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        rc = main(
            [
                "run", "-n", "16", "-f", "16", "-l", "0.04",
                "--backend", "simulate", "--replications", "1",
                "--warmup", "300", "--measure", "1200",
                "--save", "--registry", registry_dir, "--label", "cli-test",
            ]
        )
        assert rc == 0
        assert "saved to" in capsys.readouterr().out
        rc = main(["run", "-n", "16", "-f", "16", "--points", "0",
                   "--save", "--registry", registry_dir])
        assert rc == 0
        capsys.readouterr()

        assert main(["runs", "list", "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "cli-test" in out

        assert main(["runs", "list", "--registry", registry_dir,
                     "--backend", "simulate"]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_runs_diff_latest(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        for _ in range(2):
            assert main(["run", "-n", "16", "-f", "16", "--points", "0",
                         "--save", "--registry", registry_dir]) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "latest", "latest",
                     "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "point.latency" in out
        assert "max |rel|" in out

    def test_runs_diff_missing_run_is_clean_error(self, capsys, tmp_path):
        rc = main(["runs", "diff", "run-a", "run-b",
                   "--registry", str(tmp_path / "empty")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,topology",
        [
            (["run", "--topology", "bft", "-n", "16"], "bft"),
            (
                ["run", "--topology", "generalized-fattree", "-n", "8",
                 "--children", "2", "--parents", "2"],
                "generalized-fattree",
            ),
            (["run", "--topology", "hypercube", "-n", "16"], "hypercube"),
            (
                ["run", "--topology", "kary-ncube", "-n", "9", "--radix", "3"],
                "kary-ncube",
            ),
        ],
    )
    def test_run_every_topology_family_json(self, capsys, argv, topology):
        import json

        from repro.runs import RunResult

        rc = main(argv + ["-f", "16", "-l", "0.03", "--points", "0", "--json"])
        assert rc == 0
        record = RunResult.from_json(json.loads(capsys.readouterr().out))
        assert record.scenario.topology == topology
        assert record.metrics["family"]["name"] == topology
        assert record.metrics["point"]["latency"] > 0
        assert record.metrics["saturation"]["flit_load"] > 0

    def test_run_unrealizable_topology_size_is_clean_error(self, capsys):
        rc = main(["run", "--topology", "hypercube", "-n", "12",
                   "-f", "16", "--points", "0"])
        assert rc == 2
        assert "power of two" in capsys.readouterr().err

    def test_runs_list_topology_filter(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        for argv in (
            ["run", "--topology", "hypercube", "-n", "16"],
            ["run", "--topology", "bft", "-n", "16"],
        ):
            assert main(argv + ["-f", "16", "--points", "0",
                                "--save", "--registry", registry_dir]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--registry", registry_dir,
                     "--topology", "hypercube"]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out and "hypercube" in out

    def test_run_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "warp"])

    def test_run_bad_points_is_clean_error(self, capsys):
        rc = main(["run", "-n", "16", "-f", "16", "--points", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestIndexedRegistryCommands:
    def seed_registry(self, registry_dir):
        for argv in (
            ["run", "--topology", "hypercube", "-n", "16"],
            ["run", "--topology", "bft", "-n", "16"],
        ):
            assert main(argv + ["-f", "16", "--points", "0",
                                "--save", "--registry", registry_dir]) == 0

    def test_runs_reindex_reports_count(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        self.seed_registry(registry_dir)
        capsys.readouterr()
        assert main(["runs", "reindex", "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "reindexed" in out
        assert "2 record(s)" in out
        assert "runs.index.sqlite" in out

    def test_runs_reindex_json(self, capsys, tmp_path):
        import json

        registry_dir = str(tmp_path / "registry")
        self.seed_registry(registry_dir)
        capsys.readouterr()
        assert main(["runs", "reindex", "--registry", registry_dir,
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["indexed"] == 2
        assert data["skipped"] == 0

    def test_runs_list_indexed_matches_scan(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        self.seed_registry(registry_dir)
        capsys.readouterr()
        assert main(["runs", "list", "--registry", registry_dir,
                     "--indexed", "--topology", "hypercube"]) == 0
        indexed_out = capsys.readouterr().out
        assert "1 run(s)" in indexed_out and "hypercube" in indexed_out
        assert main(["runs", "list", "--registry", registry_dir,
                     "--topology", "hypercube"]) == 0
        scanned_out = capsys.readouterr().out
        # The indexed listing renders exactly what the full scan renders.
        assert indexed_out == scanned_out


class TestDesignSave:
    def test_design_save_records_exploration(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        rc = main(
            [
                "design",
                "--families", "bft",
                "--sizes", "16",
                "--flits", "16",
                "--patterns", "uniform",
                "--save", "--registry", registry_dir,
                "--label", "cm5-sizing",
            ]
        )
        assert rc == 0
        assert "saved to" in capsys.readouterr().out

        from repro.runs import RunRegistry

        (record,) = RunRegistry(registry_dir).query(kind="exploration")
        assert record.label == "cm5-sizing"
        exploration = record.metrics["exploration"]
        assert exploration["feasible_count"] >= 1
        assert exploration["cheapest_feasible"] is not None
        assert isinstance(exploration["pareto"], list)

        capsys.readouterr()
        assert main(["runs", "list", "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "exploration" in out and "cm5-sizing" in out


class TestServeParser:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000",
             "--solver-threads", "2", "--registry", "/tmp/r"]
        )
        assert args.command == "serve"
        assert args.host == "0.0.0.0"
        assert args.port == 9000
        assert args.solver_threads == 2

    def test_serve_rejects_bad_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "not-a-port"])


class TestLintCommand:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("REP001", "REP201", "REP202", "REP203", "REP204"):
            assert rule in out
        assert "allow-shared-state" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\n\nasync def h():\n    time.sleep(1)\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        assert "REP201" in capsys.readouterr().out

    def test_json_report_shape(self, tmp_path, capsys):
        import json

        (tmp_path / "bad.py").write_text(
            "import time\n\nasync def h():\n    time.sleep(1)\n"
        )
        assert main(["lint", "--json", "--rules", "REP2xx", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["rules"] == ["REP201", "REP202", "REP203", "REP204"]
        assert report["count"] == 1
        assert report["findings"][0]["rule"] == "REP201"

    def test_rule_family_selection_skips_other_pass(self, tmp_path, capsys):
        # REP001 material only; a REP2xx-only run must not report it.
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["lint", "--rules", "REP2xx", str(tmp_path)]) == 0
        assert main(["lint", "--rules", "REP001", str(tmp_path)]) == 1

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rules", "REP999", "src/repro"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
