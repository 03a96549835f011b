"""Smoke test of the benchmark: every workload at ``--size tiny``.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py

Checks the result line against BENCHMARK.json, that traced counts repeat
exactly for a fixed seed, and that a directory without the package's
sources is refused.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("count", "ratio")  # units of per-layer metrics that must repeat exactly


def bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def test_untraced_prints_every_end_to_end_metric():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        metrics = result(bench(workload, 0))["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == units, workload
        assert all(v["value"] > 0 for v in metrics.values()), (workload, metrics)


def test_traced_counts_repeat_exactly():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
        assert {k: v["unit"] for k, v in first.items()} == units, workload
        for name, unit in units.items():
            if unit in EXACT and name != "noise.mc.pool_speedup":
                assert first[name]["value"] == second[name]["value"], (workload, name)
        if workload == "enumerate":
            assert first["gadget.enumerate_branches.calls"]["value"] == 80  # 1 + 79 subsets at order 1


def test_refuses_a_directory_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=tmp)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
