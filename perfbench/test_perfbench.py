"""Self-tests of the benchmark.  Run from the repository root with
``python3 -m pytest perfbench -q`` (about half a minute: every workload runs
once at toy size, on two seeds)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import quantile, self_time_by_name, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYERS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*run.E2E, *run.LAYERS, *run.WORKLOADS]:
        assert NAME.match(name), name


def _span(sid, name, parent, start, end, run_id="r"):
    return {"id": sid, "name": name, "parent": parent, "run": run_id,
            "start": start, "end": end}


def test_self_times_of_nested_spans():
    spans = [_span(0, "build", None, 0.0, 10.0),
             _span(1, "a", 0, 1.0, 4.0),
             _span(2, "a.inner", 1, 2.0, 3.0),
             _span(3, "b", 0, 5.0, 9.0)]
    own = self_times(spans)
    assert own[("r", 0)] == pytest.approx(3.0)
    assert own[("r", 1)] == pytest.approx(2.0)
    assert own[("r", 2)] == pytest.approx(1.0)
    assert own[("r", 3)] == pytest.approx(4.0)
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [_span(0, "root", None, 0.0, 10.0),
             _span(1, "x", 0, 2.0, 6.0),
             _span(2, "y", 0, 4.0, 8.0),
             _span(3, "z", 0, 9.0, 12.0)]  # clipped to the parent
    assert self_times(spans)[("r", 0)] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_keep_runs_apart():
    spans = [_span(0, "build", None, 0.0, 4.0, "one"),
             _span(1, "core.fnd", 0, 1.0, 2.0, "one"),
             _span(0, "build", None, 0.0, 5.0, "two")]
    by_name = self_time_by_name(spans)
    assert by_name["build"] == pytest.approx(3.0 + 5.0)
    assert by_name["core.fnd"] == pytest.approx(1.0)


def test_quantile_interpolates():
    assert quantile([], 0.5) == 0.0
    assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert quantile([0.0, 10.0], 0.99) == pytest.approx(9.9)


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--scale", "toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_pass_has_no_errors(workload, seed):
    result = _run(workload, seed, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"]
    assert set(result["metrics"]) == set(run.E2E)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.E2E[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["hier23-powerlaw", "serve-mixed"])
def test_traced_layers_account_for_build(workload):
    result = _run(workload, 1, 1)
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.LAYERS)
    trace = json.loads((ROOT / ".perfbench_cache" / "traces"
                        / f"{workload}-1-1.json").read_text())
    build = next(s for s in trace["spans"] if s["name"] == "build")
    spans = [s for s in trace["spans"] if s["run"] == build["run"]]
    tree = {build["id"]}
    for s in spans:  # spans are recorded parent first
        if s["parent"] in tree:
            tree.add(s["id"])
    names = {s["id"]: s["name"] for s in spans}
    own = self_times([s for s in spans if s["id"] in tree])
    layers = sum(v for (_r, sid), v in own.items()
                 if names[sid] not in run.GROUP_SPANS)
    uncovered = result["metrics"]["trace.uncovered_s"]["value"]
    assert layers + uncovered == pytest.approx(
        build["end"] - build["start"], rel=1e-9)
