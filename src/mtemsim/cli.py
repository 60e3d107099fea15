"""Command-line front end: config parsing, subcommand dispatch, CSV emission.

Every run writes a manifest alongside its CSV artifacts.  The manifest is
itself a valid config file (comment lines carry the library version and the
subcommand), so re-running the same subcommand with ``--config`` pointed at
it reproduces the outputs byte for byte.  Every CSV row is a whole line
formatted with one ``%`` string per file: ``%.17g`` for floats (17
significant digits), ``%d`` for counts, ``%s`` for names and verdicts.
Nothing in the outputs depends on time, locale, or worker count.

Exit codes: 0 success, 2 configuration error (or outputs too large to allocate
or index), 3 verification failure, 4 estimation failure, 5 a dead drawer.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import __version__
from .engine import run_paths
from .errors import BracketError, ConfigError, DomainError, DrawerError, EstimationError, EvaluationError, InputError
from .models import (MODEL_KEYS, SamplingPlan, SdeModel, _check_count, _check_moment_order, _check_seed, _check_step,
                     as_state, estimate_lambda, get_model)
from .schemes import SCHEMES, scheme_radius
from .stability import fit_exponent, run_stability_mc, verify_lemma_global_lipschitz, verify_lemma_lambda_preserved
from .truncation import TruncationPolicy, default_policy, verify_step_condition

__all__ = ["RunConfig", "parse_config", "run_command", "main"]

# compare emits full side-by-side trajectories only for the first few paths;
# divergence tallies always cover every path.
COMPARE_TRAJECTORY_PATHS = 4


@dataclass(frozen=True)
class RunConfig:
    """Inputs of one CLI run, each a value or its text; one that cannot run is a ``ConfigError`` when it is built."""

    model: str = "example41"
    mu: float | None = None
    sigma: float | None = None
    scheme: str = "mtem"
    p: float = 0.5
    delta: float = 5e-4
    steps: int = 1000
    paths: int = 100
    seed: int = 12345
    refinement: int = 16
    x0: float = 2.0
    window: tuple[float, float] = (0.4, 1.0)
    out: str = "run"

    def __post_init__(self):
        for key in _KEYS:  # the one place where text becomes a value: each field holds what its manifest reads as
            if (value := getattr(self, key)) is not None or key not in ("mu", "sigma"):
                object.__setattr__(self, key, _coerce(key, _text(value)))
        _plan(self, (self.scheme,))


def _parse_window(raw: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError("expected LO:HI")
    return float(parts[0]), float(parts[1])


# Every configuration key, in RunConfig field order: the parser of its text and its --help text.
_KEYS = {
    "model": (str, f"model key: {', '.join(MODEL_KEYS)}"),
    "mu": (float, "linear model drift coefficient"),
    "sigma": (float, "linear model diffusion coefficient"),
    "scheme": (str, f"scheme: {', '.join(SCHEMES)}"),
    "p": (float, "moment order in (0, 1)"),
    "delta": (float, "step size"),
    "steps": (int, "number of steps"),
    "paths": (int, "number of paths"),
    "seed": (int, "master seed"),
    "refinement": (int, "fine increments per step"),
    "x0": (float, "initial state"),
    "window": (_parse_window, "fit window as fractions LO:HI of the horizon"),
    "out": (str, "output path prefix"),
}


def _text(value) -> str:
    """``value`` as its manifest line writes it: a ``str`` as it is, a tuple as ``lo:hi``, anything else by ``repr``."""
    return value if isinstance(value, str) else ":".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def _coerce(key: str, text: str):
    try:
        return _KEYS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} ({exc})") from None


def _config_file_values(text: str) -> dict:
    """Each key of a config file body and the text of its last value; only the line syntax is checked."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def _plan(config: RunConfig, schemes: tuple, workers: int = 1) -> tuple[SdeModel, TruncationPolicy, tuple]:
    """``config``'s model, policy and radius of each of ``schemes``; ``ConfigError`` if it cannot run them."""
    lo, hi = config.window
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError(f"window: fractions must satisfy 0 <= lo < hi <= 1, got {lo}:{hi}")
    if config.out.splitlines() != [config.out] or "\0" in config.out:  # a manifest line holds it whole
        raise ConfigError(f"out: must be a non-empty path prefix without a NUL or a line break, got {config.out!r}")
    if config.out != config.out.strip():  # the config reader strips every value
        raise ConfigError(f"out: must not begin or end with whitespace, got {config.out!r}")
    try:  # argv keeps a byte that is not UTF-8 as a lone surrogate, which no manifest can hold
        config.out.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"out: must encode as UTF-8, got {config.out!r} ({exc.reason})") from None
    try:  # every other rule is the library's, whose messages begin with the key
        model = get_model(config.model, config.mu, config.sigma)
        _check_moment_order("p", config.p)
        _check_step("delta", config.delta)
        for key in ("steps", "paths", "refinement"):
            _check_count(key, getattr(config, key))
        _check_seed("seed", config.seed)
        as_state(model, config.x0, "x0")
        policy = default_policy(model)  # compare and verify step mtem whatever scheme says: it bounds delta there too
        radii = tuple(scheme_radius(policy, name, config.delta) for name in schemes)
        _check_count("workers", workers)
    except InputError as exc:
        raise ConfigError(str(exc)) from None
    return model, policy, radii


def parse_config(text: str | None = None, flags: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from a config file body and/or flag overrides.

    ``text`` is a line-oriented key=value file ('#' starts a comment); values
    supplied in ``flags``, as values or as text, take precedence over the
    file.  Unknown keys are rejected before any value is read.
    """
    values = _config_file_values(text) if text is not None else {}
    values.update((key, raw) for key, raw in (flags or {}).items() if raw is not None)
    if unknown := [key for key in values if key not in _KEYS]:
        raise ConfigError(f"unknown configuration key {unknown[0]!r}")
    return RunConfig(**values)


# --- deterministic output helpers -------------------------------------------


def _write_csv(path: str, header: list[str], lines) -> None:
    """Write the header, then ``lines``: strings of whole lines."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_manifest(config: RunConfig, subcommand: str) -> None:
    lines = [f"# mtemsim {__version__}", f"# subcommand {subcommand}"]
    lines += [f"{key}={_text(getattr(config, key))}" for key in _KEYS if getattr(config, key) is not None]
    with open(f"{config.out}_manifest.txt", "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- subcommands -------------------------------------------------------------
# A runner gets the policy and the radii of the schemes it steps from run_command, and computes
# everything before it writes its first file, so that a refused run writes nothing.


def _cmd_simulate(config: RunConfig, model: SdeModel, policy: TruncationPolicy, radii: tuple, workers: int) -> int:
    result = run_paths(
        model, radii[0], config.x0, config.delta, config.steps, config.paths,
        config.seed, config.refinement, record_paths=config.paths, workers=workers,
    )
    d = model.dimension
    header = ["path_index", "k", "t"] + [f"x{i}" for i in range(d)] + ["diverged"]
    steps = ["%d,%.17g" % (k, k * config.delta) for k in range(config.steps + 1)]  # k,t once per run

    def paths():  # one "%" format per row, one write per path
        for idx, first in enumerate(result.first_divergence.tolist()):
            n = config.steps + 1 if first < 0 else first + 1
            fmt = f"{idx},%s{',%.17g' * d},{int(first >= 0)}\n"
            yield "".join([fmt % row for row in zip(steps, *result.states[idx, :n].T.tolist())])

    _write_csv(f"{config.out}_paths.csv", header, paths())
    return 0


def _cmd_exponent(config: RunConfig, model: SdeModel, policy: TruncationPolicy, radii: tuple, workers: int) -> int:
    run = run_stability_mc(
        model, radii[0], config.scheme, config.p, config.x0, config.delta,
        config.steps, config.paths, config.seed,
        refinement=config.refinement, workers=workers,
    )
    est = run.moments
    horizon = config.steps * config.delta
    fit = fit_exponent(est, (config.window[0] * horizon, config.window[1] * horizon))
    columns = est.times.tolist(), est.means.tolist(), est.stderrs.tolist(), (est.paths - est.alive).tolist()
    _write_csv(f"{config.out}_moment.csv", ["t", "moment", "stderr", "censored"],
               ("%.17g,%.17g,%.17g,%d\n" % row for row in zip(*columns)))
    _write_csv(
        f"{config.out}_fit.csv",
        ["slope", "intercept", "window_lo", "window_hi", "r_squared", "censored", "diverged_paths"],
        ["%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n" % (
            fit.slope, fit.intercept, *fit.window, fit.r_squared, fit.censored, est.diverged_paths)],
    )
    if horizon >= 1.0:
        pw = run.pathwise
        _write_csv(
            f"{config.out}_pathwise.csv",
            ["horizon", "paths", "diverged", "censored", "q05", "q50", "q95", "max"],
            ["%.17g,%d,%d,%d,%.17g,%.17g,%.17g,%.17g\n" % (
                pw.horizon, pw.paths, pw.diverged, pw.censored, pw.q05, pw.q50, pw.q95, pw.max_exponent)],
        )
    return 0


def _cmd_verify(config: RunConfig, model: SdeModel, policy: TruncationPolicy, radii: tuple, workers: int) -> int:
    (h,) = radii
    ladder = [config.delta, config.delta / 10.0, config.delta / 100.0]
    step_report = verify_step_condition(policy, model.lipschitz_bound, ladder)
    lam_hat = estimate_lambda(model, config.p, SamplingPlan(seed=config.seed))
    lip = verify_lemma_global_lipschitz(model, h, seed=config.seed)
    preserved = verify_lemma_lambda_preserved(model, h, config.p, lam_hat, seed=config.seed)
    step_verdict, drift, diffusion, lam = ("pass" if ok else "fail" for ok in (
        step_report.passed, lip.drift_passed, lip.diffusion_passed, preserved.passed))
    _write_csv(
        f"{config.out}_step_condition.csv",
        ["delta", "h", "L_h", "product", "verdict"],
        ("%.17g,%.17g,%.17g,%.17g,%s\n" % (r.delta, r.h, r.lipschitz_at_h, r.product, step_verdict)
         for r in step_report.rows),
    )
    _write_csv(
        f"{config.out}_lemmas.csv",
        ["check", "value", "bound", "verdict"],
        ["global_lipschitz_drift,%.17g,%.17g,%s\n"
         "global_lipschitz_diffusion,%.17g,%.17g,%s\n"
         "lambda_preserved,%.17g,%.17g,%s\n"
         "lambda_estimate,%.17g,,info\n"
         "step_condition_monotone,,,%s\n" % (
             lip.max_ratio_drift, lip.bound, drift, lip.max_ratio_diffusion, lip.bound, diffusion,
             preserved.supremum, -preserved.lam + preserved.tolerance, lam, lam_hat, step_verdict)],
    )
    return 0 if step_report.passed and lip.passed and preserved.passed else 3


def _cmd_compare(config: RunConfig, model: SdeModel, policy: TruncationPolicy, radii: tuple, workers: int) -> int:
    # one run, a lane per scheme on each path drawn once; tallies cover every path, the CSV a few
    n_show = min(config.paths, COMPARE_TRAJECTORY_PATHS)
    schemes = run_paths(model, radii, config.x0, config.delta, config.steps, config.paths,
                        config.seed, config.refinement, record_paths=n_show, workers=workers).split(len(SCHEMES))

    d = model.dimension
    header = ["path_index", "k", "t"] + [f"{name}_x{i}" for name in SCHEMES for i in range(d)]
    steps = ["%d,%.17g" % (k, k * config.delta) for k in range(config.steps + 1)]  # k,t once per run

    def paths():  # a scheme's fields stay empty after the state it diverged at
        for idx in range(n_show):
            firsts = [int(r.first_divergence[idx]) for r in schemes]
            lasts = [config.steps if first < 0 else first for first in firsts]
            k = 0
            for end in sorted({*lasts, config.steps}):  # rows k..end show the same schemes
                shown = [last >= end for last in lasts]
                fmt = f"{idx},%s" + "".join(",%.17g" * d if s else "," * d for s in shown) + "\n"
                columns = [c for r, s in zip(schemes, shown) if s for c in r.states[idx, k:end + 1].T.tolist()]
                yield "".join([fmt % row for row in zip(steps[k:end + 1], *columns)])
                k = end + 1

    _write_csv(f"{config.out}_compare.csv", header, paths())
    _write_csv(
        f"{config.out}_tallies.csv",
        ["scheme", "paths", "diverged", "divergence_fraction"],
        ["%s,%d,%d,%.17g\n" % (name, config.paths, r.diverged_paths, r.diverged_paths / config.paths)
         for name, r in zip(SCHEMES, schemes)],
    )
    return 0


# Every subcommand: its runner, the schemes it steps (None: the configured one) and its --help text.
_COMMANDS = {
    "simulate": (_cmd_simulate, None, "write per-path trajectories as CSV"),
    "exponent": (_cmd_exponent, None, "estimate the moment curve, fitted exponent, and pathwise exponents"),
    "verify": (_cmd_verify, ("mtem",), "run the step-condition and lemma verifiers"),
    "compare": (_cmd_compare, SCHEMES, "run mtem and em on identical Brownian paths"),
}
SUBCOMMANDS = tuple(_COMMANDS)


def run_command(subcommand: str, config: RunConfig, workers: int = 1) -> int:
    """Execute a subcommand; writes its CSV artifacts plus a run manifest once every result is computed."""
    if subcommand not in _COMMANDS:
        raise InputError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")
    runner, schemes, _ = _COMMANDS[subcommand]
    status = runner(config, *_plan(config, schemes or (config.scheme,), workers), workers)
    _write_manifest(config, subcommand)
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtemsim",
        description="Simulate and verify the truncated-coefficient explicit Euler scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (*_, text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for key, (_, text) in _KEYS.items():
            sp.add_argument(f"--{key}", help=text)  # text: RunConfig reads it like a file value
        sp.add_argument("--workers", type=int, default=1,
                        help="2 or more fork that many drawer processes, at most the window's 8 segments, to draw "
                             "each block's increments ahead; 1 draws in this process, which steps all paths")
    return parser


def _joined_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with ``--<key> -1e9`` as ``--<key>=-1e9`` for any float: argparse takes -1e9, not -3, for a flag."""
    joined = []
    for token in argv:
        if joined and joined[-1].startswith("--") and joined[-1][2:] in _KEYS and token.startswith("-"):
            try:
                float(token)
                token = f"{joined.pop()}={token}"
            except ValueError:
                pass
        joined.append(token)
    return joined


# Each refusal of a run, in the order it is matched: its stderr prefix and its exit code.
_REFUSALS = {
    ConfigError: ("configuration error", 2), OSError: ("io error", 2), MemoryError: ("memory error", 2),
    InputError: ("input error", 2), DomainError: ("input error", 2), BracketError: ("input error", 2),
    EstimationError: ("estimation error", 4), EvaluationError: ("estimation error", 4),
    DrawerError: ("drawer error", 5),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(_joined_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        text = None
        if args.config is not None:
            try:  # UTF-8 under any locale, strictly
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config: {exc}") from None
        flags = {key: getattr(args, key) for key in _KEYS}
        config = parse_config(text=text, flags=flags)
        return run_command(args.command, config, workers=args.workers)
    except tuple(_REFUSALS) as exc:
        prefix, code = next(refusal for kind, refusal in _REFUSALS.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
