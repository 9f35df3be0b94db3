"""Tiny end-to-end runs of every workload through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def bench(*args: str, cwd: Path = ROOT, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize(
    "workload, seconds",
    [("run_closed_form", "0.5"), ("explore_faults", "0.5"), ("simulate_replicas", "0.5")],
)
def test_untraced_run_reports_every_end_to_end_metric(workload, seconds):
    out = result(bench("--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", "0"))
    assert set(out["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", ["run_closed_form", "simulate_replicas"])
def test_traced_run_reports_every_per_layer_metric(workload):
    out = result(bench("--workload", workload, "--seed", "2", "--seconds", "0.6", "--trace", "1"))
    assert set(out["metrics"]) == declared("per_layer")
    m = {k: v["value"] for k, v in out["metrics"].items()}
    # Per-layer self times plus the unattributed remainder make up the op time.
    parts = sum(v for k, v in m.items() if k.endswith(".self_ms")) + m["op.unattributed_ms"]
    assert parts == pytest.approx(m["op.traced_ms"], rel=1e-6)


def test_serve_runs_untraced_and_traced():
    out = result(bench("--workload", "serve_mixed", "--seed", "3", "--seconds", "2", "--trace", "1"))
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["loadgen.closed.ok"] > 0 and m["index.lookup_ms"] > 0
    assert m["registry.saves"] >= 1 and m["serve.hit_ratio"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "run_closed_form", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
