"""Tiny-size runs of every workload through bench/run.py, as the benchmark
is driven: a fresh process per execution, one JSON result on the last line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(root, *args, out):
    cmd = [sys.executable, os.path.join("bench", "run.py"), *args, "--out", str(out)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke_run(workload, tmp_path):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--smoke", out=tmp_path)
    result = result_of(proc)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    (record,) = tmp_path.glob("*.json")
    context = json.loads(record.read_text())["context"]
    assert {"nproc", "python", "cpu_model", "loadavg_1m_start", "loadavg_1m_end",
            "git_commit"} <= set(context)


EXACT = ["exactcount.busy_s", "exactcount.build_s", "exactcount.max_digits"]
SAMPLE = ["sampler.busy_s", "sampler.tree_p50_ms", "sampler.trees", "treecore.newick_s"]
# per-layer metrics each workload must move, and counts that must be exact
CALLED = {
    "exact-k2": (EXACT + ["exactcount.root_rank_s", "exactcount.rank_ge_s"], {}),
    "sample-k2": (EXACT + SAMPLE + ["treecore.ranks_s"], {"sampler.trees": 40}),
    "verify-k3": (EXACT + SAMPLE + ["exactcount.root_rank_s", "exactcount.rank_ge_s",
                                    "bruteforce.busy_s", "bruteforce.trees",
                                    "seriesoracle.busy_s", "seriesoracle.solve_T_s",
                                    "seriesoracle.solve_T_calls_per_key",
                                    "stats.chi_square_self_s", "cli.verify_self_s"],
                  {"sampler.trees": 3000, "seriesoracle.solve_T_calls_per_key": 5}),
}


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_traced_smoke_run(workload, tmp_path):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "1", "--smoke", out=tmp_path)
    result = result_of(proc)
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    moved, exact = CALLED[workload]
    called_layers = {name.split(".")[0] for name in moved}
    for name, m in metrics.items():
        if name in moved:
            assert m["value"] > 0, name
        elif name.split(".")[0] not in called_layers | {"trace"}:
            assert m["value"] == 0, name
    for name, value in exact.items():
        assert metrics[name]["value"] == value
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "exact-k2", "--seed", "1", "--seconds", "1",
                     "--trace", "0", out=tmp_path / "out")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
