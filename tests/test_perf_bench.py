"""Tests for the benchmark harness and ``repro perf bench`` CLI."""

import json

import pytest

from repro.cli import main
from repro.perf import bench


@pytest.fixture(scope="module")
def kernel_doc():
    return bench.run_bench(
        preset="smoke", workloads=("crf_nll", "crf_decode")
    )


class TestRunBench:
    def test_document_shape(self, kernel_doc):
        assert kernel_doc["schema"] == 1
        assert kernel_doc["preset"] == "smoke"
        assert kernel_doc["crf_shape"] == [16, 24, 9]
        for name in ("crf_nll", "crf_decode"):
            result = kernel_doc["workloads"][name]
            for side in ("baseline", "fast"):
                assert result[side]["median_ms"] > 0
                assert result[side]["reps"] == bench.PRESETS["smoke"][0]
            assert result["speedup"] > 0

    def test_fast_path_actually_faster(self, kernel_doc):
        """The fused NLL must beat the autodiff graph comfortably; wide
        margin so timer noise cannot flake the test."""
        assert kernel_doc["workloads"]["crf_nll"]["speedup"] > 1.3

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            bench.run_bench(preset="enormous")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            bench.run_bench(preset="smoke", workloads=("warp_drive",))


class TestCompare:
    def _doc(self, median):
        return {
            "workloads": {
                "crf_nll": {
                    "baseline": {"median_ms": 10.0},
                    "fast": {"median_ms": median},
                    "speedup": 10.0 / median,
                }
            }
        }

    def test_no_regression(self):
        assert bench.compare(self._doc(1.0), self._doc(1.0)) == []
        assert bench.compare(self._doc(1.2), self._doc(1.0),
                             threshold=0.3) == []

    def test_detects_regression(self):
        messages = bench.compare(self._doc(2.0), self._doc(1.0),
                                 threshold=0.3)
        assert len(messages) == 1
        assert "crf_nll" in messages[0]

    def test_new_workload_skipped(self):
        current = self._doc(5.0)
        current["workloads"]["brand_new"] = {
            "baseline": {"median_ms": 1.0},
            "fast": {"median_ms": 1.0},
            "speedup": 1.0,
        }
        baseline = self._doc(5.0)
        assert bench.compare(current, baseline) == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            bench.compare(self._doc(1.0), self._doc(1.0), threshold=-0.1)


class TestRoundTrip:
    def test_write_and_load(self, kernel_doc, tmp_path):
        path = tmp_path / "BENCH_test.json"
        bench.write_result(kernel_doc, str(path))
        assert bench.load_result(str(path)) == json.loads(
            json.dumps(kernel_doc)
        )

    def test_render_lists_workloads(self, kernel_doc):
        text = bench.render(kernel_doc)
        assert "crf_nll" in text
        assert "speedup" in text


class TestCLI:
    def test_bench_writes_output(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main([
            "perf", "bench", "--preset", "smoke",
            "--workloads", "crf_decode", "--output", str(out),
        ])
        assert code == 0
        document = bench.load_result(str(out))
        assert "crf_decode" in document["workloads"]
        assert "crf_decode" in capsys.readouterr().out

    def test_check_passes_against_self(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main([
            "perf", "bench", "--preset", "smoke",
            "--workloads", "crf_decode", "--output", str(out),
        ]) == 0
        # Generous threshold: same machine, moments apart.
        assert main([
            "perf", "bench", "--preset", "smoke",
            "--workloads", "crf_decode", "--output",
            str(tmp_path / "second.json"),
            "--check", str(out), "--threshold", "5.0",
        ]) == 0

    def test_check_fails_on_regression(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "perf", "bench", "--preset", "smoke",
            "--workloads", "crf_decode", "--output", str(out),
        ]) == 0
        # Make the baseline impossibly fast: any real run regresses.
        doc = bench.load_result(str(out))
        doc["workloads"]["crf_decode"]["fast"]["median_ms"] = 1e-9
        rigged = tmp_path / "rigged.json"
        bench.write_result(doc, str(rigged))
        code = main([
            "perf", "bench", "--preset", "smoke",
            "--workloads", "crf_decode", "--output",
            str(tmp_path / "again.json"),
            "--check", str(rigged), "--threshold", "0.1",
        ])
        assert code == 1
        assert "regression" in capsys.readouterr().err

    def test_check_missing_baseline(self, tmp_path):
        assert main([
            "perf", "bench", "--preset", "smoke",
            "--workloads", "crf_decode", "--output",
            str(tmp_path / "x.json"),
            "--check", str(tmp_path / "missing.json"),
        ]) == 2

    def test_unknown_workload_exits_2(self, capsys):
        assert main([
            "perf", "bench", "--preset", "smoke",
            "--workloads", "warp_drive",
        ]) == 2
        assert "unknown workloads" in capsys.readouterr().err
