"""The benchmark's own tests: every workload prints every metric, and an
oracle that is given a wrong expected value reports a failure.

    python3 -m pytest perfbench
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*argv, cwd=ROOT):
    res = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    return res


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    res = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    assert doc["failed"] == 0 and doc["correct"] is True  # fail_frac == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload, corrupt, want", [
    ("flip-lift", lambda mp: mp.setitem(workloads.FROZEN["flip_diameter"], 5, 4), 1),
    ("flip-lift", lambda mp: mp.setattr(workloads, "pants_count", lambda s: 0), 2),
    ("homology", lambda mp: mp.setattr(workloads, "sphere_count", lambda s: 0), 2),
])
def test_corrupted_expected_value_is_a_failure(monkeypatch, workload, corrupt, want):
    corrupt(monkeypatch)
    items = workloads.build(workload, 3, tiny=True)
    passes = run.Passes(items, 0, log=io.StringIO()).run()
    assert passes.attempted == len(items)
    assert passes.failed == want


def test_exception_in_an_item_is_a_failure():
    def boom():
        raise RuntimeError("boom")
    items = [workloads.Item("ok", lambda: 1, lambda r: None),
             workloads.Item("boom", boom, lambda r: None)]
    passes = run.Passes(items, 0, log=io.StringIO()).run()
    assert (passes.attempted, passes.failed) == (2, 1)


def test_tail_percentile_keeps_ten_items_above():
    assert run.tail_percentile(59) == 83
    assert run.tail_percentile(1270) == 99
    assert run.tail_percentile(10) == 100
    values = sorted(float(i) for i in range(59))
    q = run.tail_percentile(59)
    assert sum(v > run.nearest_rank(values, q) for v in values) >= 10


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = bench("--workload", "homology", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
