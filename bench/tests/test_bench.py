"""Tests of the benchmark's own code: smoke runs, metric names, span accounting.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, api_for  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--size", "smoke"])
    assert status == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_declared_metrics(workload, trace, section):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_times_subtract_union_of_overlapping_children():
    root = Span("root", None, 1)
    root.start, root.end = 0.0, 10.0
    a = Span("a", root, 2)  # two children in other threads, overlapping on [3, 4]
    a.start, a.end = 1.0, 4.0
    b = Span("b", root, 3)
    b.start, b.end = 3.0, 6.0
    b.book = 0.5
    c = Span("c", a, 2)
    c.start, c.end = 2.0, 3.0
    own = self_times([root, a, b, c])
    assert own[id(root)] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[id(a)] == pytest.approx(2.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(c)] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", ["mc_linear_fine", "cli_suite"])
def test_span_self_times_add_up_to_traced_wall(workload):
    # One chunk of paths, so every span runs in this thread and the self
    # times of all spans, bookkeeping and the harness itself tile the run.
    spec = WORKLOADS[workload]
    pkg = run.fresh_package()
    ctx = spec.build(pkg, None, ROOT / ".bench_run", **spec.sizes["smoke"])
    tracer = Tracer()
    ctx.model = tracer.traced_model(ctx.model)
    with tracer.patched(pkg):
        start = time.perf_counter()
        tracer.run("harness", None, spec.run, (api_for(pkg, tracer), ctx, 5))
        wall = time.perf_counter() - start
    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["harness"]
    harness = roots[0]
    own = self_times(spans)
    assert all(value >= -1e-9 for value in own.values())
    total = sum(own.values()) + sum(s.book for s in spans)
    assert total == pytest.approx(harness.end - harness.start, rel=1e-9, abs=1e-9)
    assert harness.end - harness.start <= wall
    metrics = layer_metrics(spans)
    assert metrics["schemes.lane_steps"] == metrics["engine.path_steps"] > 0


def test_worker_chunks_are_children_of_run_paths():
    spec = WORKLOADS["mc_example41"]
    pkg = run.fresh_package()
    size = dict(spec.sizes["smoke"], paths=1024, steps=2000)  # two chunks, two workers
    ctx = spec.build(pkg, None, ROOT / ".bench_run", **size)
    tracer = Tracer()
    with tracer.patched(pkg):
        tracer.run("harness", None, spec.run, (api_for(pkg, tracer), ctx, 5))
    chunks = [s for s in tracer.spans if s.name == "engine.chunk"]
    assert len(chunks) == 2
    assert all(c.parent.name == "engine.run_paths" for c in chunks)
    assert {c.thread for c in chunks} != {chunks[0].parent.thread}
    steps = [s for s in tracer.spans if s.name == "schemes.advance_states"]
    assert {s.parent.name for s in steps} == {"engine.chunk"}
    assert layer_metrics(tracer.spans)["engine.chunks"] == 2
    # patched names are restored afterwards
    assert not hasattr(pkg.engine.advance_states, "__wrapped__")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "cli_suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
