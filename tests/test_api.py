"""Public-API surface tests: exports, docstrings, error hierarchy."""

from __future__ import annotations

import inspect

import pytest

import repro
from repro import errors


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "7.0.0"

    @pytest.mark.parametrize(
        "name",
        [
            "latency_sweep",
            "load_grid_to_saturation",
            "saturation_injection_rate",
            "saturation_flit_load",
            "run_replications",
            "simulated_latency_curve",
            "explore",
        ],
    )
    def test_shims_removed_in_3_0(self, name):
        # The top-level aliases deprecated in 2.0.0 are gone; the home
        # modules keep the functions.
        assert name not in repro.__all__
        assert not hasattr(repro, name)

    @pytest.mark.parametrize(
        "name",
        [
            "Scenario",
            "Runner",
            "run",
            "RunResult",
            "RunRegistry",
            "SCHEMA_VERSION",
            "ButterflyFatTreeModel",
            "ButterflyFatTree",
            "Workload",
            "SimConfig",
            "simulate",
            "simulate_flit_level",
            "ModelVariant",
            "bft_stage_graph",
            "hypercube_stage_graph",
        ],
    )
    def test_key_entry_points_exported(self, name):
        assert name in repro.__all__

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.core
        import repro.experiments
        import repro.queueing
        import repro.runs
        import repro.simulation
        import repro.topology
        import repro.util


class TestPackaging:
    def test_setup_metadata(self):
        # setup.py reads the version as text: no import of the package.
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out[-2:] == ["repro", repro.__version__] == ["repro", "7.0.0"]


class TestDocstrings:
    def test_every_public_module_documented(self):
        import pkgutil

        undocumented = []
        for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = __import__(mod.name, fromlist=["_"])
            if not (module.__doc__ or "").strip():
                undocumented.append(mod.name)
        assert not undocumented

    def test_public_classes_documented(self):
        from repro import (
            ButterflyFatTree,
            ButterflyFatTreeModel,
            ChannelGraphModel,
            EventDrivenWormholeSimulator,
            FlitLevelWormholeSimulator,
        )

        for cls in (
            ButterflyFatTree,
            ButterflyFatTreeModel,
            ChannelGraphModel,
            EventDrivenWormholeSimulator,
            FlitLevelWormholeSimulator,
        ):
            assert (cls.__doc__ or "").strip(), cls
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name}"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.TopologyError,
            errors.RoutingError,
            errors.SaturatedError,
            errors.ConvergenceError,
            errors.SimulationError,
            errors.RegistryError,
            errors.SchemaVersionError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_schema_version_error_is_registry_error(self):
        assert issubclass(errors.SchemaVersionError, errors.RegistryError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(errors.ConfigurationError, ValueError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(errors.ReproError):
            repro.Workload(0, 0.1)
