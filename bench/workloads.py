"""The benchmark's workloads: set-up, one timed call into the public API, output checks.

Each workload is closed-loop: one run at a time from a single process, at
most two threads.  Set-up builds what a user builds before the first run
(the model, its truncation policy and the radius at the step size), the
timed part calls the public API only, and the checks read the returned
values or the written files afterwards, outside the timed region.

A run's outputs are hashed; the digest is compared between the repeated runs
of one seed in a process (the byte-reproducibility contract), never against
a stored value.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

__all__ = ["WORKLOADS", "Outcome", "Workload", "api_for"]

MOMENT_P = 0.5
# Moment decay rate example41 guarantees: p (lambda - eps), lambda = 1, eps = 1/2.
EXAMPLE41_RATE = MOMENT_P * (1.0 - 0.5)
LINEAR_MU, LINEAR_SIGMA = -1.0, 0.5
# Closed-form log-moment slope of the linear model: p (mu + (p - 1) sigma^2 / 2).
LINEAR_SLOPE = MOMENT_P * (LINEAR_MU + (MOMENT_P - 1.0) * LINEAR_SIGMA**2 / 2.0)


@dataclass
class Outcome:
    """What the checks of one run found."""

    digest: str
    checks: list[tuple[str, bool]]
    csv_rows: int = 0
    csv_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # size name -> keyword arguments of build/run
    build: Callable  # (package, tracer, out_dir, **size) -> context namespace
    run: Callable  # (api, context, seed) -> raw result
    check: Callable  # (context, result) -> Outcome
    requested_path_steps: Callable  # (**size) -> paths x steps the user asked for


def api_for(pkg, tracer=None) -> SimpleNamespace:
    """The public functions a workload calls, wrapped in spans when traced."""
    names = {
        "run_stability_mc": ("stability.run_stability_mc", pkg.stability.run_stability_mc),
        "fit_exponent": ("stability.fit_exponent", pkg.stability.fit_exponent),
        "main": ("cli.main", pkg.cli.main),
    }
    if tracer is None:
        return SimpleNamespace(**{key: fn for key, (_, fn) in names.items()})
    return SimpleNamespace(**{key: tracer.wrap(span, fn) for key, (span, fn) in names.items()})


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _timed_radius(tracer, policy, delta):
    if tracer is None:
        return policy.radius(delta)
    return tracer.wrap("truncation.radius", policy.radius)(delta)


# --- Monte Carlo workloads ---------------------------------------------------


def _build_mc(pkg, tracer, out_dir, *, model, delta, x0, paths, steps, refinement, workers):
    if model == "example41":
        sde = pkg.models.example41()
    else:
        sde = pkg.models.linear(LINEAR_MU, LINEAR_SIGMA)
    if tracer is not None:
        sde = tracer.counted_lipschitz(sde)
    policy = pkg.truncation.default_policy(sde)
    radius = _timed_radius(tracer, policy, delta)
    return SimpleNamespace(
        pkg=pkg, model=sde, radius=radius, delta=delta, x0=x0, paths=paths,
        steps=steps, refinement=refinement, workers=workers,
    )


def _run_mc(api, ctx, seed):
    run = api.run_stability_mc(
        ctx.model, ctx.radius, "mtem", MOMENT_P, ctx.x0, ctx.delta, ctx.steps, ctx.paths, seed,
        refinement=ctx.refinement, workers=ctx.workers,
    )
    horizon = ctx.steps * ctx.delta
    fit = api.fit_exponent(run.moments, (0.4 * horizon, horizon))
    return run, fit


def _mc_digest(run, fit) -> str:
    m, pw = run.moments, run.pathwise
    return _digest(
        m.means.tobytes(), m.stderrs.tobytes(), m.alive.tobytes(), pw.gammas.tobytes(),
        repr((fit.slope, fit.intercept, fit.r_squared, fit.censored)).encode(),
    )


def _check_example41(ctx, result) -> Outcome:
    run, fit = result
    m = run.moments
    # The moment check is a one-sided test at T against the decay bound
    # |x0|^p e^(-p (lambda - eps) T), not the fitted slope: at 2048 paths one
    # path in thousands can carry the late means, and on correct code the
    # slope over [0, T] then reads up to +0.56.  Such a path raises the standard
    # error as much as the mean, so it cannot push the mean three errors up.
    bound = m.means[0] * math.exp(-EXAMPLE41_RATE * ctx.steps * ctx.delta)
    return Outcome(_mc_digest(run, fit), [
        ("moment at T within 3 stderr of the decay bound", m.means[-1] <= bound + 3.0 * m.stderrs[-1]),
        ("no path diverged", m.diverged_paths == 0 and run.pathwise.diverged == 0),
        ("pathwise q95 <= -0.5", run.pathwise.q95 <= -0.5),
    ])


def _check_linear(ctx, result) -> Outcome:
    run, fit = result
    rel_err = abs(fit.slope - LINEAR_SLOPE) / abs(LINEAR_SLOPE)
    return Outcome(_mc_digest(run, fit), [("slope within 15% of closed form", rel_err <= 0.15)])


def _mc_path_steps(*, paths, steps, **_):
    return paths * steps


# --- CLI workload -------------------------------------------------------------

CLI_DELTA = 5e-4


def _build_cli(pkg, tracer, out_dir, *, compare_paths, compare_steps, simulate_paths, simulate_steps):
    # The CLI builds its own model and policy per command; set-up builds the
    # same example41 model, policy and radius once, as a caller checking its
    # configuration would.
    sde = pkg.models.example41()
    if tracer is not None:
        sde = tracer.counted_lipschitz(sde)
    radius = _timed_radius(tracer, pkg.truncation.default_policy(sde), CLI_DELTA)
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, "cli")
    return SimpleNamespace(
        pkg=pkg, model=sde, radius=radius, prefix=prefix,
        compare=(compare_paths, compare_steps), simulate=(simulate_paths, simulate_steps),
    )


def _cli_argvs(ctx, seed):
    common = ["--model", "example41", "--delta", repr(CLI_DELTA), "--seed", str(seed)]
    cmp_paths, cmp_steps = ctx.compare
    sim_paths, sim_steps = ctx.simulate
    return [
        ["verify", *common, "--out", ctx.prefix + "_ver"],
        ["compare", *common, "--steps", str(cmp_steps), "--paths", str(cmp_paths),
         "--refinement", "1", "--x0", "2.0", "--out", ctx.prefix + "_cmp"],
        ["simulate", *common, "--steps", str(sim_steps), "--paths", str(sim_paths),
         "--x0", "2.0", "--out", ctx.prefix + "_sim"],
    ]


CLI_FILES = (
    "_ver_step_condition.csv", "_ver_lemmas.csv", "_ver_manifest.txt",
    "_cmp_compare.csv", "_cmp_tallies.csv", "_cmp_manifest.txt",
    "_sim_paths.csv", "_sim_manifest.txt",
)


def _run_cli(api, ctx, seed):
    for suffix in CLI_FILES:
        path = ctx.prefix + suffix
        if os.path.exists(path):
            os.remove(path)
    return [api.main(argv) for argv in _cli_argvs(ctx, seed)]


def _csv_rows(text: str):
    return [line.split(",") for line in text.splitlines()[1:]]


def _check_cli(ctx, codes) -> Outcome:
    blobs = {}
    for suffix in CLI_FILES:
        path = ctx.prefix + suffix
        blobs[suffix] = open(path, "rb").read() if os.path.exists(path) else b""
    text = {suffix: blob.decode() for suffix, blob in blobs.items()}
    csvs = [s for s in CLI_FILES if s.endswith(".csv")]

    verdicts = [row[-1] for row in _csv_rows(text["_ver_lemmas.csv"]) if row[-1] != "info"]
    verdicts += [row[-1] for row in _csv_rows(text["_ver_step_condition.csv"])]
    tallies = {row[0]: row for row in _csv_rows(text["_cmp_tallies.csv"])}
    mtem_diverged = int(tallies["mtem"][2]) if "mtem" in tallies else -1
    em_fraction = float(tallies["em"][3]) if "em" in tallies else -1.0

    return Outcome(
        _digest(*(blobs[s] for s in CLI_FILES)),
        [
            ("every exit code is 0", codes == [0, 0, 0]),
            ("every verify verdict passes", bool(verdicts) and all(v == "pass" for v in verdicts)),
            ("MTEM diverged 0", mtem_diverged == 0),
            ("EM divergence fraction in [0.02, 0.60]", 0.02 <= em_fraction <= 0.60),
        ],
        csv_rows=sum(len(text[s].splitlines()) - 1 for s in csvs if text[s]),
        csv_bytes=sum(len(blobs[s]) for s in csvs),
    )


def _cli_path_steps(*, compare_paths, compare_steps, simulate_paths, simulate_steps, **_):
    return 2 * compare_paths * compare_steps + simulate_paths * simulate_steps


# --- registry ---------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_example41",
            {
                "full": dict(model="example41", delta=5e-4, x0=2.0, paths=2048, steps=10_000,
                             refinement=1, workers=2),
                "smoke": dict(model="example41", delta=5e-4, x0=2.0, paths=64, steps=10_000,
                              refinement=1, workers=2),
            },
            _build_mc, _run_mc, _check_example41, _mc_path_steps,
        ),
        Workload(
            "mc_linear_fine",
            {
                "full": dict(model="linear", delta=1e-3, x0=1.0, paths=2048, steps=5000,
                             refinement=16, workers=2),
                "smoke": dict(model="linear", delta=1e-3, x0=1.0, paths=64, steps=5000,
                              refinement=16, workers=2),
            },
            _build_mc, _run_mc, _check_linear, _mc_path_steps,
        ),
        Workload(
            "cli_suite",
            {
                "full": dict(compare_paths=1000, compare_steps=10_000,
                             simulate_paths=64, simulate_steps=2000),
                "smoke": dict(compare_paths=128, compare_steps=10_000,
                              simulate_paths=8, simulate_steps=200),
            },
            _build_cli, _run_cli, _check_cli, _cli_path_steps,
        ),
    )
}
