"""Tiny-size runs of every workload, and the benchmark's contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
WORKLOADS = list(run.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "stackbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        for alias in run.ALIASES[workload].values():
            assert alias in proc.stdout
    else:
        assert "sum" in proc.stdout
        assert line["metrics"]["ledger.op_ms"]["value"] > 0


def test_traced_ledger_adds_up(tmp_path):
    proc = _run("--workload", "serve-bulk", "--seed", "1", "--seconds", "0.5",
                "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = {k: v["value"] for k, v in json.loads(
        proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    parts = sum(metrics[m] for m in run.LAYER_METRICS.values())
    parts += metrics["sanitize.self_us"] / 1000.0
    parts += metrics["ledger.unattributed_ms"]
    assert parts == pytest.approx(metrics["ledger.op_ms"], rel=1e-9)
    assert metrics["char_cnn.self_ms"] > 0
    assert metrics["service.batch_size_mean"] >= 1


def test_benchmark_json_matches_the_harness():
    import workloads

    assert list(workloads.WORKLOADS) == WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "stackbench/run.py"]
    # serve-open runs from the harness but is not gated (see README.md).
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS[1:]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_printing_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "stackbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "serve-bulk", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert proc.stdout.strip() == ""
