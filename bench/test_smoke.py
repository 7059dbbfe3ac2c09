"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric is printed by name and unit, that the result
line carries exactly the metrics BENCHMARK.json lists, that layer self
times add up to the traced wall time, that the benchmark refuses to
run without the package, and that host-speed scaling uses the probes near
an interval and leaves their own time out.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PRINTED_ONLY = {"bytes_written": "bytes", "idf1": "ratio", "id_switches": "count",
                "error_rate": "ratio"}


def run_bench(workload, trace, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    r = run_bench(workload, 0)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] != 0, name
    # all twelve, by name and unit, in the human-readable lines
    text = "\n".join(lines[:-1])
    for name, unit in {**spec, **PRINTED_ONLY}.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b",
                         text, re.M), name
    assert "digests " in text and "env " in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    r = run_bench(workload, 1)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["trace.wall_s"]["value"]
    assert layers + metrics["trace.remainder_s"]["value"] == pytest.approx(wall, rel=1e-9)
    assert metrics["tracker.step_s"]["value"] > 0
    if workload == "cli_pipeline":
        assert metrics["decoding.recovery_ratio"]["value"] > 0
        assert metrics["cli.encode_s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = run_bench(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout


def test_host_speed_scales_by_nearby_probes_and_leaves_them_out():
    sys.path.insert(0, str(BENCH))
    import hostspeed

    nominal = hostspeed.NOMINAL_S
    speed = hostspeed.HostSpeed()
    speed.starts = [float(t) for t in range(10)] + [100.0 + t for t in range(10)]
    speed.times = [nominal] * 10 + [2 * nominal] * 10
    assert speed.slowdown(4.5, 4.6) == pytest.approx(1.0)
    assert speed.slowdown(104.5, 104.6) == pytest.approx(2.0)
    # far from any probe: the ten nearest, nine fast before and one slow after
    assert speed.slowdown(50.0, 50.1) == pytest.approx(1.0)
    # a probe preempted for long is trimmed away
    speed.times[5] = 50 * nominal
    assert speed.slowdown(4.5, 4.6) == pytest.approx(1.0)
    # probes at 0, 1 and 2 ran inside [0, 2.5]: their time is not the program's
    assert speed.seconds(0.0, 2.5) == pytest.approx(2.5 - 3 * nominal)
    assert speed.seconds(100.0, 102.5) == pytest.approx((2.5 - 6 * nominal) / 2)
