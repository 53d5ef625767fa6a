"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_smoke.py

Every metric BENCHMARK.json names must appear with its unit on every
workload; the traced run must write spans whose self times are
non-negative and add up to each operation's duration; the exact
counters must repeat between two traced runs with the same seed; and
without the sources under src/ the benchmark must fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
COUNTERS = ("flips.make_flip_plan.calls", "flips.sign_bytes", "engine.sign_madds",
            "glm.fit_null.calls", "glm.fit_full.calls", "glm.irls_iterations",
            "baselines.calls", "simulate.failed_reps")


def bench(workload, trace, run_py=HERE / "run.py", check=True):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if not check:
        return done
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = bench(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_consistent_spans(workload):
    first = bench(workload, 1)
    assert first["correct"] and first["failed"] == 0
    assert units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in first["metrics"].items()}
    assert all(metrics[name] >= 0 for name in metrics if name.endswith(("s", "_mb")))

    doc = json.loads((HERE / "out" / f"{workload}-tiny-seed{SEED}-trace1-spans.json")
                     .read_text(encoding="utf-8"))
    fields = doc["span_fields"]
    start, end, self_s = (fields.index(f) for f in ("start", "end", "self_s"))
    assert doc["ops"]
    for op in doc["ops"]:
        spans = op["spans"]
        assert spans[0][fields.index("parent")] is None
        assert all(s[self_s] >= 0 for s in spans)
        wall = spans[0][end] - spans[0][start]
        assert sum(s[self_s] for s in spans) == pytest.approx(wall, rel=1e-9, abs=1e-12)

    second = bench(workload, 1)
    assert {c: second["metrics"][c]["value"] for c in COUNTERS} == {
        c: metrics[c] for c in COUNTERS}


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(WORKLOADS[0], 0, run_py=tmp_path / HERE.name / "run.py", check=False)
    assert done.returncode != 0
    assert not done.stdout.strip()
