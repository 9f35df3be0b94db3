"""Exact golden values of the butterfly fat-tree closed form (Eqs. 16-26).

``tests/data/fattree_closed_form_v3.json`` was written by repro 3.0.0, whose
``ButterflyFatTreeModel`` still carried its own hand-written Eq. 16-24 sweep.
The model is now the ``(4, 2)`` member of ``GeneralizedFatTreeModel``; these
tests pin that the folded solver reproduces every recorded float exactly:

* ``latency_batch`` on a grid that crosses saturation;
* the ``solve()`` per-level arrays at half the saturation load;
* the Eq. 26 ``saturation_injection_rate``.

Floats are stored with :meth:`float.hex`, so they round-trip exactly and
the comparisons are ``==`` (a rounding change anywhere in the sweep fails).

Regenerate (only when a deliberate, documented change moves the answers)::

    PYTHONPATH=src python tests/test_fattree_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import ButterflyFatTreeModel, ModelVariant, Workload
from repro.core import GeneralizedFatTreeModel, saturation_injection_rate

GOLDEN = Path(__file__).parent / "data" / "fattree_closed_form_v3.json"

SIZES = (4, 64, 1024)
FLITS = (8, 32)
VARIANTS = (
    ModelVariant.paper(),
    ModelVariant.no_multiserver(),
    ModelVariant.no_blocking_correction(),
    ModelVariant.naive(),
    ModelVariant.deterministic_scv(),
    ModelVariant.exponential_scv(),
    ModelVariant.conditional_up(),
)
DETAIL_KEYS = ("rate", "down_service", "down_wait", "up_service", "up_wait")
GRID_POINTS = 12


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _unhex(values: list[str]) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values])


def _case_key(num_processors: int, variant: ModelVariant, flits: int) -> str:
    return f"N={num_processors}/{variant.label}/F={flits}"


def compute_case(num_processors: int, variant: ModelVariant, flits: int) -> dict:
    """Everything the fixture records for one (size, variant, worm length)."""
    model = ButterflyFatTreeModel(num_processors, variant)
    saturation = saturation_injection_rate(model, flits).injection_rate
    # 0 .. 1.5x saturation: the last third of the grid is past saturation.
    grid = np.linspace(0.0, 1.5 * saturation, GRID_POINTS)
    solution = model.solve(Workload(flits, 0.5 * saturation))
    return {
        "saturation_injection_rate": saturation.hex(),
        "grid": _hex(grid),
        "latency_batch": _hex(model.latency_batch(grid, flits)),
        "solve_point": (0.5 * saturation).hex(),
        "solve": {key: _hex(getattr(solution, key)) for key in DETAIL_KEYS},
    }


def _cases():
    for n in SIZES:
        for variant in VARIANTS:
            for flits in FLITS:
                yield n, variant, flits


def write_golden() -> None:
    record = {
        "description": (
            "ButterflyFatTreeModel closed-form answers; floats are float.hex"
        ),
        "cases": {
            _case_key(n, v, f): compute_case(n, v, f) for n, v, f in _cases()
        },
    }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


CASES = list(_cases())
IDS = [_case_key(n, v, f) for n, v, f in CASES]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(IDS)


@pytest.mark.parametrize("num_processors,variant,flits", CASES, ids=IDS)
def test_bft_matches_golden_exactly(golden, num_processors, variant, flits):
    stored = golden[_case_key(num_processors, variant, flits)]
    assert compute_case(num_processors, variant, flits) == stored
    # The grid really crosses saturation: finite first, inf at the end.
    latencies = _unhex(stored["latency_batch"])
    assert np.isfinite(latencies[0]) and np.isinf(latencies[-1])


@pytest.mark.parametrize("num_processors,variant,flits", CASES, ids=IDS)
def test_generalized_4_2_matches_golden_exactly(
    golden, num_processors, variant, flits
):
    """The (4, 2) generalized model is the butterfly fat-tree, bit for bit."""
    stored = golden[_case_key(num_processors, variant, flits)]
    levels = ButterflyFatTreeModel(num_processors).levels
    model = GeneralizedFatTreeModel(4, 2, levels, variant)
    grid = _unhex(stored["grid"])
    assert _hex(model.latency_batch(grid, flits)) == stored["latency_batch"]
    solution = model.solve(Workload(flits, float.fromhex(stored["solve_point"])))
    for key in DETAIL_KEYS:
        assert _hex(getattr(solution, key)) == stored["solve"][key], key
    rate = saturation_injection_rate(model, flits).injection_rate
    assert rate.hex() == stored["saturation_injection_rate"]


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN}")
