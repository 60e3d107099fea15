"""Command-line front end: config parsing, subcommand dispatch, CSV emission.

Every run writes a manifest alongside its CSV artifacts.  The manifest is
itself a valid config file (comment lines carry the library version and the
subcommand), so re-running the same subcommand with ``--config`` pointed at
it reproduces the outputs byte for byte.  All floating-point CSV fields use
17 significant digits; nothing in the outputs depends on time, locale, or
worker count.

Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 estimation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import __version__
from .engine import run_paths
from .errors import (
    BracketError,
    ConfigError,
    DomainError,
    EstimationError,
    EvaluationError,
    InputError,
)
from .models import MODEL_KEYS, SamplingPlan, SdeModel, estimate_lambda, get_model
from .schemes import SCHEMES, scheme_radius
from .stability import fit_exponent, run_stability_mc, verify_lemma_global_lipschitz, verify_lemma_lambda_preserved
from .truncation import default_policy, verify_step_condition

__all__ = ["RunConfig", "parse_config", "run_command", "main"]

SUBCOMMANDS = ("simulate", "exponent", "verify", "compare")

# compare emits full side-by-side trajectories only for the first few paths;
# divergence tallies always cover every path.
COMPARE_TRAJECTORY_PATHS = 4

_LEMMA_TRIALS = 100_000


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI run."""

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


def _parse_window(raw) -> tuple[float, float]:
    if isinstance(raw, (tuple, list)) and len(raw) == 2:
        return float(raw[0]), float(raw[1])
    parts = str(raw).split(":")
    if len(parts) != 2:
        raise ValueError("expected LO:HI")
    return float(parts[0]), float(parts[1])


# Every configuration key, in RunConfig field order: its parser and its --help text.
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


def _coerce(key: str, raw):
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return _KEYS[key][0](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None


def _config_file_values(text: str) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values[key] = _coerce(key, raw.strip())
    return values


def _validate(config: RunConfig) -> RunConfig:
    if config.model not in MODEL_KEYS:
        raise ConfigError(f"model: unknown key {config.model!r}; known: {', '.join(MODEL_KEYS)}")
    if config.model == "linear" and (config.mu is None or config.sigma is None):
        raise ConfigError("model: 'linear' requires mu and sigma")
    if config.model == "example41" and (config.mu is not None or config.sigma is not None):
        raise ConfigError("model: 'example41' takes no mu/sigma parameters")
    for key in ("mu", "sigma"):
        value = getattr(config, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
    if config.scheme not in SCHEMES:
        raise ConfigError(f"scheme: must be one of {', '.join(SCHEMES)}, got {config.scheme!r}")
    if not 0.0 < config.p < 1.0:
        raise ConfigError(f"p: must lie in (0, 1), got {config.p}")
    if not config.delta > 0.0:
        raise ConfigError(f"delta: must be positive, got {config.delta}")
    if config.steps < 1:
        raise ConfigError(f"steps: must be >= 1, got {config.steps}")
    if config.paths < 1:
        raise ConfigError(f"paths: must be >= 1, got {config.paths}")
    if config.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {config.seed}")
    if config.refinement < 1:
        raise ConfigError(f"refinement: must be >= 1, got {config.refinement}")
    if not math.isfinite(config.x0):
        raise ConfigError(f"x0: must be finite, got {config.x0}")
    lo, hi = config.window
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError(f"window: fractions must satisfy 0 <= lo < hi <= 1, got {lo}:{hi}")
    if not config.out:
        raise ConfigError("out: must be a non-empty path prefix")
    if config.scheme == "mtem":
        policy = default_policy(_build_model(config))
        if config.delta > policy.delta_star:
            raise ConfigError(
                f"delta: {config.delta} exceeds the truncation policy's validity bound "
                f"{policy.delta_star} for model {config.model!r}"
            )
    return config


def parse_config(text: str | None = None, flags: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from a config file body and/or flag overrides.

    ``text`` is a line-oriented key=value file ('#' starts a comment); values
    supplied in ``flags`` take precedence over the file.  Unknown keys are
    rejected.
    """
    values = dict(_config_file_values(text)) if text is not None else {}
    for key, raw in (flags or {}).items():
        if raw is None:
            continue
        values[key] = _coerce(key, raw)
    return _validate(RunConfig(**values))


def _build_model(config: RunConfig) -> SdeModel:
    if config.model == "linear":
        return get_model("linear", mu=config.mu, sigma=config.sigma)
    return get_model(config.model)


# --- deterministic output helpers -------------------------------------------


def _f(value) -> str:
    return format(float(value), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _manifest_lines(config: RunConfig, subcommand: str) -> list[str]:
    lines = [f"# mtemsim {__version__}", f"# subcommand {subcommand}"]
    for key in _KEYS:
        value = getattr(config, key)
        if key == "window":
            lines.append(f"window={value[0]!r}:{value[1]!r}")
        elif value is not None:
            lines.append(f"{key}={value if isinstance(value, str) else repr(value)}")
    return lines


def _write_manifest(config: RunConfig, subcommand: str) -> None:
    with open(f"{config.out}_manifest.txt", "w", newline="\n") as fh:
        fh.write("\n".join(_manifest_lines(config, subcommand)) + "\n")


# --- subcommands -------------------------------------------------------------


def _cmd_simulate(config: RunConfig, workers: int) -> int:
    model = _build_model(config)
    radius = scheme_radius(model, default_policy(model), config.scheme, config.delta)
    result = run_paths(
        model, radius, config.x0, config.delta, config.steps, config.paths,
        config.seed, config.refinement, record_paths=config.paths, workers=workers,
    )
    d = model.dimension
    header = ["path_index", "k", "t"] + [f"x{i}" for i in range(d)] + ["diverged"]

    def rows():
        for idx in range(config.paths):
            first = result.first_divergence[idx]
            last = config.steps if first < 0 else int(first)
            flag = "0" if first < 0 else "1"
            for k in range(last + 1):
                yield [str(idx), str(k), _f(k * config.delta)] + \
                    [_f(v) for v in result.states[idx, k]] + [flag]

    _write_csv(f"{config.out}_paths.csv", header, rows())
    return 0


def _cmd_exponent(config: RunConfig, workers: int) -> int:
    model = _build_model(config)
    run = run_stability_mc(
        model, default_policy(model), config.scheme, config.p, config.x0, config.delta,
        config.steps, config.paths, config.seed,
        refinement=config.refinement, workers=workers,
    )
    est = run.moments
    _write_csv(
        f"{config.out}_moment.csv",
        ["t", "moment", "stderr", "censored"],
        (
            [_f(est.times[k]), _f(est.means[k]), _f(est.stderrs[k]), str(est.paths - int(est.alive[k]))]
            for k in range(est.times.size)
        ),
    )
    horizon = config.steps * config.delta
    window = (config.window[0] * horizon, config.window[1] * horizon)
    fit = fit_exponent(est, window)
    _write_csv(
        f"{config.out}_fit.csv",
        ["slope", "intercept", "window_lo", "window_hi", "r_squared", "censored", "diverged_paths"],
        [[_f(fit.slope), _f(fit.intercept), _f(fit.window[0]), _f(fit.window[1]),
          _f(fit.r_squared), str(fit.censored), str(est.diverged_paths)]],
    )
    if horizon >= 1.0:
        pw = run.pathwise
        _write_csv(
            f"{config.out}_pathwise.csv",
            ["horizon", "paths", "diverged", "censored", "q05", "q50", "q95", "max"],
            [[_f(pw.horizon), str(pw.paths), str(pw.diverged), str(pw.censored),
              _f(pw.q05), _f(pw.q50), _f(pw.q95), _f(pw.max_exponent)]],
        )
    return 0


def _cmd_verify(config: RunConfig, workers: int) -> int:
    model = _build_model(config)
    policy = default_policy(model)
    h = policy.radius(config.delta)

    ladder = [config.delta, config.delta / 10.0, config.delta / 100.0]
    step_report = verify_step_condition(policy, model.lipschitz_bound, ladder)
    step_verdict = "pass" if step_report.passed else "fail"
    _write_csv(
        f"{config.out}_step_condition.csv",
        ["delta", "h", "L_h", "product", "verdict"],
        ([_f(r.delta), _f(r.h), _f(r.lipschitz_at_h), _f(r.product), step_verdict]
         for r in step_report.rows),
    )

    lam_hat = estimate_lambda(model, config.p, SamplingPlan(seed=config.seed))
    lip = verify_lemma_global_lipschitz(model, h, trials=_LEMMA_TRIALS, seed=config.seed)
    lam_plan = SamplingPlan(r_min=h / 100.0, r_max=100.0 * h, seed=config.seed)
    preserved = verify_lemma_lambda_preserved(model, h, config.p, lam_hat, lam_plan)

    rows = [
        ["global_lipschitz_drift", _f(lip.max_ratio_drift), _f(lip.bound),
         "pass" if lip.drift_passed else "fail"],
        ["global_lipschitz_diffusion", _f(lip.max_ratio_diffusion), _f(lip.bound),
         "pass" if lip.diffusion_passed else "fail"],
        ["lambda_preserved", _f(preserved.supremum), _f(-preserved.lam + preserved.tolerance),
         "pass" if preserved.passed else "fail"],
        ["lambda_estimate", _f(lam_hat), "", "info"],
        ["step_condition_monotone", "", "", step_verdict],
    ]
    _write_csv(f"{config.out}_lemmas.csv", ["check", "value", "bound", "verdict"], rows)

    all_passed = step_report.passed and lip.passed and preserved.passed
    return 0 if all_passed else 3


def _cmd_compare(config: RunConfig, workers: int) -> int:
    model = _build_model(config)
    radius = default_policy(model).radius(config.delta)
    # one run per scheme: the tallies cover every path, the CSV the first few
    n_show = min(config.paths, COMPARE_TRAJECTORY_PATHS)
    common = dict(record_paths=n_show, workers=workers)
    mtem = run_paths(model, radius, config.x0, config.delta, config.steps,
                     config.paths, config.seed, config.refinement, **common)
    em = run_paths(model, math.inf, config.x0, config.delta, config.steps,
                   config.paths, config.seed, config.refinement, **common)

    d = model.dimension
    header = ["path_index", "k", "t"] + [f"mtem_x{i}" for i in range(d)] + [f"em_x{i}" for i in range(d)]

    def rows():
        for idx in range(n_show):
            last_m = config.steps if mtem.first_divergence[idx] < 0 else int(mtem.first_divergence[idx])
            last_e = config.steps if em.first_divergence[idx] < 0 else int(em.first_divergence[idx])
            for k in range(config.steps + 1):
                mt = [_f(v) for v in mtem.states[idx, k]] if k <= last_m else [""] * d
                et = [_f(v) for v in em.states[idx, k]] if k <= last_e else [""] * d
                yield [str(idx), str(k), _f(k * config.delta)] + mt + et

    _write_csv(f"{config.out}_compare.csv", header, rows())
    _write_csv(
        f"{config.out}_tallies.csv",
        ["scheme", "paths", "diverged", "divergence_fraction"],
        [
            ["mtem", str(config.paths), str(mtem.diverged_paths), _f(mtem.diverged_paths / config.paths)],
            ["em", str(config.paths), str(em.diverged_paths), _f(em.diverged_paths / config.paths)],
        ],
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "exponent": _cmd_exponent,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}


def run_command(subcommand: str, config: RunConfig, workers: int = 1) -> int:
    """Execute a subcommand; writes its CSV artifacts plus a run manifest."""
    if subcommand not in _COMMANDS:
        raise InputError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")
    status = _COMMANDS[subcommand](config, workers)
    _write_manifest(config, subcommand)
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtemsim",
        description="Simulate and verify the truncated-coefficient explicit Euler scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "write per-path trajectories as CSV"),
        ("exponent", "estimate the moment curve, fitted exponent, and pathwise exponents"),
        ("verify", "run the step-condition and lemma verifiers"),
        ("compare", "run mtem and em on identical Brownian paths"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for key, (_, text) in _KEYS.items():
            sp.add_argument(f"--{key}", help=text)  # a raw string: _coerce parses it like a file value
        sp.add_argument("--workers", type=int, default=1,
                        help="threads that draw each block's increments; one steps all paths")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = None
        if args.config is not None:
            with open(args.config) as fh:
                text = fh.read()
        flags = {key: getattr(args, key) for key in _KEYS}
        config = parse_config(text=text, flags=flags)
        return run_command(args.command, config, workers=max(1, args.workers))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (InputError, DomainError, BracketError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, EvaluationError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
