"""Shared fixtures for the test suite.

Topology construction is cached at session scope — the fat-tree builders
are deterministic, and reusing them keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro import ButterflyFatTree, Hypercube, KaryNCube, SimConfig, Workload


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: end-to-end runs of the example scripts (seconds each)"
    )


@pytest.fixture(scope="session")
def bft16() -> ButterflyFatTree:
    return ButterflyFatTree(16)


@pytest.fixture(scope="session")
def bft64() -> ButterflyFatTree:
    return ButterflyFatTree(64)


@pytest.fixture(scope="session")
def bft256() -> ButterflyFatTree:
    return ButterflyFatTree(256)


@pytest.fixture(scope="session")
def cube6() -> Hypercube:
    return Hypercube(6)


@pytest.fixture(scope="session")
def torus8x2() -> KaryNCube:
    return KaryNCube(8, 2)


@pytest.fixture()
def quick_sim_config() -> SimConfig:
    """A short but statistically meaningful measurement protocol."""
    return SimConfig(warmup_cycles=1_000, measure_cycles=5_000, seed=1234)


@pytest.fixture()
def workload32() -> Workload:
    return Workload.from_flit_load(0.02, 32)
