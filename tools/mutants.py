"""The mutation score of the tier-1 tests: a fixed table of one-line mutants, each run in a temporary copy.

Each entry of ``MUTANTS`` names a file under ``src/mtemsim``, the exact text it replaces, which must occur in
that file exactly once, the text put in its place, and the rule the change breaks.  A mutant is killed when
the tests fail on it and survives when they pass.  The table is fixed, so that scores compare across changes
to the code; an entry that no longer matches its file is an error, not a skip.

The tests run without the byte-pinned ones (the golden digests and the engine's ``keep_their_bytes`` tests),
which fail on almost any change, so that a kill shows a test of behaviour.  Each mutant runs alone, one
process at a time, in a copy of ``src``, ``tests`` and ``pyproject.toml``; the repository is never changed.
The unmutated copy runs first, and no mutant runs if its tests fail.

    python tools/mutants.py                    # run every mutant: about 20 minutes on 2 CPUs
    python tools/mutants.py --only NAME ...    # run the named mutants
    python tools/mutants.py --check            # check that every entry matches its file once; runs no test

It prints one line per mutant, killed with the first failing test or survived, and writes a JSON summary
(``--json``, by default ``mutants.json``).  It needs only the standard library and the test dependencies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/mtemsim"
COMMAND = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests",
           "--deselect", "tests/test_golden.py", "-k", "not keep_their_bytes"]
TIMEOUT_S = 900  # a mutant that hangs the tests is killed by this

# (name, file under src/mtemsim, old text, new text, the rule the mutant breaks)
MUTANTS = [
    ("init-exports", "__init__.py", '"OVERFLOW_GUARD", "BrownianPath",', '"BrownianPath",',
     "the package exports the engine's overflow guard"),
    ("main-exit-code", "__main__.py", "sys.exit(main())", "main()",
     "python -m mtemsim exits with the CLI's code"),
    ("errors-input-base", "errors.py", "class InputError(MtemError):", "class InputError(ValueError):",
     "every library error is an MtemError"),
    ("errors-drawer-base", "errors.py", "class DrawerError(MtemError):", "class DrawerError(RuntimeError):",
     "a dead drawer is an MtemError"),
    ("models-lambda-tolerance", "models.py", "LAMBDA_TOLERANCE = 1e-6", "LAMBDA_TOLERANCE = 1e-3",
     "a sampled supremum may exceed -lambda by 1e-6"),
    ("models-moment-order-open", "models.py", "if not 0.0 < (p := _check_real(name, value)) < 1.0:",
     "if not 0.0 < (p := _check_real(name, value)) <= 1.0:", "a moment order lies in the open interval (0, 1)"),
    ("models-count-int64", "models.py", "not least <= value < 2**63:", "not least <= value < 2**64:",
     "a count fits numpy's int64 sizes"),
    ("models-radii-count", "models.py", "max(int(np.ceil(decades * plan.radii_per_decade)) + 1, 2)",
     "max(int(np.ceil(decades * plan.radii_per_decade)), 2)", "a sampling plan covers both ends of its range"),
    ("models-stream-seed", "models.py", "SeedSequence(entropy=seed, spawn_key=key)",
     "SeedSequence(entropy=seed + 1, spawn_key=key)", "every stream is seeded by its seed as given"),
    ("models-functional-p", "models.py", "0.5 * (p - 2.0) * (xg * xg)", "0.5 * (p - 1.0) * (xg * xg)",
     "the stability functional's second term carries (p - 2) / 2"),
    ("models-norm-sign", "models.py", "np.abs(xs[..., 0]) if xs.shape[-1] == 1", "xs[..., 0] if xs.shape[-1] == 1",
     "a scalar state's norm is its absolute value"),
    ("models-subnormal-guard", "models.py", "np.finfo(float).tiny ** 0.25", "np.finfo(float).tiny ** 0.5",
     "no rounding bound is claimed where |x|^4 is subnormal"),
    ("truncation-bracket-expansions", "truncation.py", "_MAX_BRACKET_EXPANSIONS = 4", "_MAX_BRACKET_EXPANSIONS = 3",
     "the radius search widens its bracket up to four times"),
    ("truncation-bracket-growth", "truncation.py", "_BRACKET_GROWTH = 1e3", "_BRACKET_GROWTH = 1e2",
     "each widening is a thousandfold"),
    ("truncation-delta-star", "truncation.py", "if (delta := _check_step(\"delta\", delta)) > self.delta_star:",
     "if (delta := _check_step(\"delta\", delta)) >= self.delta_star:", "a policy accepts its own delta_star"),
    ("truncation-step-monotone", "truncation.py", "later.product <= earlier.product * (1.0 + 1e-12)",
     "later.product <= earlier.product * (1.0 + 1e-3)", "the step-condition product may grow by 1e-12 only"),
    ("schemes-grid-snap", "schemes.py", "_GRID_SNAP = 1e-9", "_GRID_SNAP = 1e-6",
     "a time within a relative 1e-9 of a grid point or the horizon is on it"),
    ("schemes-step-snap-direction", "schemes.py", "if u - k > 1.0 - _GRID_SNAP:", "if u - k > 1.0 + _GRID_SNAP:",
     "the step interpolant snaps a time just below a grid point up to it"),
    ("schemes-increment-scale", "schemes.py", "math.sqrt(delta / refinement) * z", "math.sqrt(delta) / refinement * z",
     "a fine increment is N(0, delta / refinement)"),
    ("schemes-em-radius", "schemes.py", "    if scheme == \"em\":\n        return math.inf",
     "    if scheme == \"em\":\n        return 1e10", "plain EM is untruncated"),
    ("engine-overflow-guard", "engine.py", "OVERFLOW_GUARD = 1e10", "OVERFLOW_GUARD = 1e12",
     "a lane freezes once its norm passes 1e10"),
    ("engine-nan-freezes", "engine.py", "if not norms.max() <= guard:", "if norms.max() > guard:",
     "a lane whose norm is NaN freezes"),
    ("engine-chunk-paths", "engine.py", "CHUNK_PATHS = 512", "CHUNK_PATHS = 256",
     "moment sums are reduced over segments of 512 paths"),
    ("engine-kahan", "engine.py", "compensation[:] = (t - total) - y", "compensation[:] = 0.0",
     "segment sums are merged with compensated summation"),
    ("engine-close-deadline", "engine.py", "deadline = time.monotonic() + 1.0", "deadline = time.monotonic() + 30.0",
     "a drawer that does not end is killed one second after close"),
    ("engine-moment-paths", "engine.py", "_check_count(\"paths\", paths, 1 if moment_p is None else 2)",
     "_check_count(\"paths\", paths, 1)", "moment sums need two paths"),
    ("engine-jobs-cap", "engine.py", "jobs = min(workers, -(-min(paths, width) // chunk))", "jobs = workers",
     "no more drawers than segments in a window"),
    ("stability-min-fit-points", "stability.py", "_MIN_FIT_POINTS = 10", "_MIN_FIT_POINTS = 9",
     "a fit window holds at least 10 grid points"),
    ("stability-underflow-floor", "stability.py", "UNDERFLOW_FLOOR = 1e-300", "UNDERFLOW_FLOOR = 1e-250",
     "logarithms are floored at 1e-300"),
    ("stability-lipschitz-slack", "stability.py", "LIPSCHITZ_REL_SLACK = 1e-9", "LIPSCHITZ_REL_SLACK = 1e-3",
     "a difference quotient may exceed 3 L_h by a relative 1e-9 only"),
    ("stability-three-lh", "stability.py", "bound = 3.0 * float(model.lipschitz_bound(h))",
     "bound = 2.0 * float(model.lipschitz_bound(h))", "the truncated coefficients are 3 L_h - Lipschitz"),
    ("stability-sample-variance", "stability.py", "np.maximum(alive - 1, 1)", "np.maximum(alive, 1)",
     "a standard error uses the sample variance"),
    ("stability-q95", "stability.py", "[0.05, 0.50, 0.95]", "[0.05, 0.50, 0.90]",
     "the pathwise summary reports q95"),
    ("stability-unit-horizon", "stability.py", "_check_step(\"delta\", delta) < 1.0:",
     "_check_step(\"delta\", delta) < 0.5:", "a pathwise exponent needs a horizon of at least 1"),
    ("cli-compare-paths", "cli.py", "COMPARE_TRAJECTORY_PATHS = 4", "COMPARE_TRAJECTORY_PATHS = 5",
     "compare writes the trajectories of the first four paths"),
    ("cli-estimation-code", "cli.py", "EvaluationError: (\"estimation error\", 4)",
     "EvaluationError: (\"estimation error\", 3)", "an evaluation error exits 4"),
    ("cli-verify-code", "cli.py", "lip.passed and preserved.passed else 3", "lip.passed and preserved.passed else 4",
     "a failed verification exits 3"),
    ("cli-window-start", "cli.py", "if not 0.0 <= lo < hi <= 1.0:", "if not 0.0 < lo < hi <= 1.0:",
     "a fit window may start at 0"),
]


def check() -> list[str]:
    """A line for each entry whose old text does not occur in its file exactly once, or that changes nothing."""
    problems = []
    modules = {path.name for path in (ROOT / PACKAGE).glob("*.py")}
    for name, file, old, new, _ in MUTANTS:
        count = (ROOT / PACKAGE / file).read_text().count(old) if file in modules else 0
        if old == new:
            problems.append(f"{name}: changes nothing")
        elif count != 1:
            problems.append(f"{name}: {file} holds its old text {count} times")
    if missing := modules - {file for _, file, *_ in MUTANTS}:
        problems.append(f"no mutant of {', '.join(sorted(missing))}")
    if len({name for name, *_ in MUTANTS}) != len(MUTANTS):
        problems.append("two mutants share a name")
    return problems


def first_failure(output: str) -> str | None:
    """The node id of the first test pytest's summary reports as failed or in error."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run(name: str, file: str | None = None, old: str = "", new: str = "", rule: str = "") -> dict:
    """Run the tests on a copy of the repository with one mutant applied, or none without a ``file``."""
    with tempfile.TemporaryDirectory(prefix="mtemsim-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if file is not None:
            target = Path(tmp) / PACKAGE / file
            target.write_text(target.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.monotonic()
        try:
            done = subprocess.run(COMMAND, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            code, output = done.returncode, done.stdout + done.stderr
        except subprocess.TimeoutExpired:
            code, output = None, ""
    return {"name": name, "file": file, "rule": rule, "killed": code != 0, "exit_code": code,
            "first_failure": first_failure(output) if code is not None else f"timeout after {TIMEOUT_S} s",
            "seconds": round(time.monotonic() - start, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="only check that every entry matches its file once")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    parser.add_argument("--json", default="mutants.json", help="where to write the summary")
    args = parser.parse_args(argv)
    if problems := check():
        print("\n".join(problems), file=sys.stderr)
        return 2
    if args.check:
        print(f"{len(MUTANTS)} mutants, each matching its file once")
        return 0
    chosen = [m for m in MUTANTS if args.only is None or m[0] in args.only]
    if unknown := set(args.only or ()) - {m[0] for m in chosen}:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    if (baseline := run("unmutated"))["killed"]:
        print(f"the tests fail without a mutant, first {baseline['first_failure']}; no mutant was run", file=sys.stderr)
        return 1
    results = []
    for mutant in chosen:
        result = run(*mutant)
        results.append(result)
        verdict = f"killed by {result['first_failure']}" if result["killed"] else "survived"
        print(f"{result['name']:32} {result['seconds']:6.1f} s  {verdict}", flush=True)
    killed = sum(r["killed"] for r in results)
    summary = {"command": " ".join(COMMAND[1:]), "mutants": len(results), "killed": killed,
               "survived": [r["name"] for r in results if not r["killed"]], "results": results}
    Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"{killed} of {len(results)} mutants killed; summary in {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
