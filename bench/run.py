"""Run one workload of the mtemsim benchmark and print its metrics.

    python3 bench/run.py --workload mc_example41 --seed 1 --seconds 42 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed or compiled.  Set-up (a fresh import of ``mtemsim`` plus building
the workload's model, policy and radius) is timed five times before the first
run and again after every run; its median is ``setup_s``.  The workload runs
closed-loop, one call after another with the same seed, until the next call
would overrun ``--seconds`` (at least twice, so the outputs of two runs can be
compared byte for byte).  Every run's outputs are checked and hashed;
``attempted`` and ``failed`` count those checks.

``--trace 0`` prints the end-to-end metrics: medians over the untraced runs.
``--trace 1`` alternates untraced and traced runs and prints the per-layer
metrics of the traced ones (see ``tracing.py``), their overhead against the
untraced ones, and writes the spans of the last traced run to ``.bench_run/``.
The last line of standard output is the JSON result; the lines before it
record the environment and a summary, which includes the time of a fixed
reference kernel before and after the measurement.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy

from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, api_for

ROOT = Path(__file__).resolve().parent.parent
# Set-ups timed before the first run and again after each run, so that the
# median samples the machine's state over the whole measurement.
SETUP_REPS = 5
MIN_RUNS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_package():
    """Import ``mtemsim`` from scratch, dropping any copy already imported."""
    for name in [n for n in sys.modules if n == "mtemsim" or n.startswith("mtemsim.")]:
        del sys.modules[name]
    return importlib.import_module("mtemsim")


def setup_once(workload, size, out_dir):
    """Time one set-up: a fresh import plus the workload's model, policy and radius."""
    gc.collect()  # drop the previous copy's cycles, which a fresh process would not have
    start = time.perf_counter()
    pkg = fresh_package()
    ctx = workload.build(pkg, None, out_dir, **size)
    return time.perf_counter() - start, pkg, ctx


def repeat(seconds: float, iteration) -> None:
    """Call ``iteration`` until the next call would overrun ``seconds``."""
    durations = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        iteration()
        durations.append(time.perf_counter() - start)
        used = time.perf_counter() - begin
        if len(durations) >= MIN_RUNS and used + statistics.median(durations) > seconds:
            return


def calibration_s() -> float:
    """Median time of a fixed numpy-and-Python kernel.

    Recorded before and after the measurement so that a run on a machine
    that is slow at the moment can be told apart from slow code.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = numpy.linspace(0.1, 2.0, 512)
        for _ in range(8000):
            x = x + (x + x**3) * 1e-6 - 1e-6 * x
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((root / "src" / "mtemsim").rglob("*.py"))
    )
    return {
        "cpu_affinity": affinity,
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "src_mtemsim_lines": src_lines,
    }


def write_spans(path: Path, spans) -> None:
    own = self_times(spans)
    index = {id(span): i for i, span in enumerate(spans)}
    origin = min((span.start for span in spans), default=0.0)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "name", "thread", "start_s", "end_s", "self_s", "bookkeeping_s"])
        for i, span in enumerate(spans):
            parent = index[id(span.parent)] if span.parent is not None else ""
            out.writerow([i, parent, span.name, span.thread, f"{span.start - origin:.9f}",
                          f"{span.end - origin:.9f}", f"{own[id(span)]:.9f}", f"{span.book:.9f}"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="problem size; 'smoke' is a seconds-long run for the tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mtemsim" / "__init__.py").is_file():
        print(f"benchmark: no mtemsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_run"
    out_dir.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    seed = args.seed % 2**32
    calibration = [calibration_s()]
    fresh_package()  # the first import compiles and caches bytecode; not timed
    setup_samples = []

    def time_setups():
        for _ in range(SETUP_REPS):
            setup_samples.append(setup_once(workload, size, out_dir)[0])

    time_setups()
    _, pkg, ctx = setup_once(workload, size, out_dir)  # the copy every run uses
    api = api_for(pkg)

    walls, outcomes = [], []

    def untraced():
        start = time.perf_counter()
        result = workload.run(api, ctx, seed)
        walls.append(time.perf_counter() - start)
        outcomes.append(workload.check(ctx, result))

    if args.trace:
        tracer = Tracer()
        setup_tracer = Tracer()
        workload.build(pkg, setup_tracer, out_dir, **size)
        traced_api = api_for(pkg, tracer)
        traced_ctx = SimpleNamespace(**{**vars(ctx), "model": tracer.traced_model(ctx.model)})
        traced_walls, layers = [], []

        def traced():
            tracer.reset()
            with tracer.patched(pkg):
                start = time.perf_counter()
                result = tracer.run("harness", None, workload.run, (traced_api, traced_ctx, seed))
                traced_walls.append(time.perf_counter() - start)
            outcome = workload.check(ctx, result)
            outcomes.append(outcome)
            layers.append(layer_metrics(tracer.spans, outcome.csv_rows, outcome.csv_bytes))

        def pair():
            untraced()
            traced()

        repeat(args.seconds, pair)
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        values["truncation.radius_s"] = sum(
            s.end - s.start for s in setup_tracer.spans if s.name == "truncation.radius")
        values["truncation.lipschitz_evals"] = setup_tracer.lipschitz_evals
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        units = PER_LAYER_UNITS
        write_spans(out_dir / f"{workload.name}-seed{seed}-spans.csv", tracer.spans)
    else:
        def untraced_then_setups():
            untraced()
            time_setups()

        repeat(args.seconds, untraced_then_setups)
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "path_steps_per_s": workload.requested_path_steps(**size) / wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    calibration.append(calibration_s())
    failed_checks = [name for outcome in outcomes for name, ok in outcome.checks if not ok]
    digests = [outcome.digest for outcome in outcomes]
    mismatches = sum(digest != digests[0] for digest in digests[1:])
    attempted = sum(len(outcome.checks) for outcome in outcomes) + len(digests) - 1
    failed = len(failed_checks) + mismatches

    env = environment(ROOT)
    summary = {
        "workload": workload.name, "seed": seed, "trace": args.trace, "size": args.size,
        "runs": len(walls), "wall_s_each": walls, "setup_s_each": setup_samples,
        "calibration_s_before_after": calibration,
        "digest": digests[0], "digest_mismatches": mismatches,
        "failed_checks": failed_checks, "failed_frac": failed / attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = out_dir / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "summary": summary, **result}, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
