"""Monte Carlo moment curves, Lyapunov exponent fits, and executable lemma checks.

The estimators here quantify two flavors of exponential stability for a
simulated scheme: decay of the p-th moment E|X_k|^p (slope of its log against
time) and the pathwise decay rate log|X_K| / (K delta).  The verifiers turn
the two structural facts the scheme relies on into sampled checks: global
Lipschitz continuity of the truncated coefficients with constant 3 L_h, and
preservation of the stability functional's negative bound under truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import run_paths
from .errors import EstimationError, InputError
from .models import (LAMBDA_TOLERANCE, SamplingPlan, SdeModel, _check_count, _check_finite, _check_moment_order,
                     _check_real, _check_seed, _check_size, _check_step, _gaussian_directions, _sampled_functional,
                     _stream, sample_states, state_norms)
from .schemes import _GRID_SNAP, scheme_radius
from .truncation import truncated_batch

__all__ = [
    "UNDERFLOW_FLOOR",
    "MomentEstimate",
    "ExponentFit",
    "PathwiseExponentSummary",
    "StabilityRun",
    "run_stability_mc",
    "estimate_moment_curve",
    "estimate_as_exponent",
    "fit_exponent",
    "GlobalLipschitzReport",
    "verify_lemma_global_lipschitz",
    "LambdaPreservationReport",
    "verify_lemma_lambda_preserved",
]

# Applied inside logarithms; decaying paths reach the denormal range on long
# horizons and log(0) would poison fits.
UNDERFLOW_FLOOR = 1e-300

_MIN_FIT_POINTS = 10

# The lemma verifiers' fixed settings
LIPSCHITZ_RADIUS_MULTIPLE = 10.0  # state pairs are sampled out to this multiple of h
LIPSCHITZ_REL_SLACK = 1e-9  # a difference quotient may exceed 3 L_h by this relative slack


@dataclass(frozen=True)
class MomentEstimate:
    """Sample means of |X_k|^p across paths, with their standard errors.

    ``alive[k]`` counts the paths still contributing at step k (paths are
    dropped from the step they diverge at); means and standard errors are
    computed over exactly those paths and are nan where none survive.
    """

    times: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    alive: np.ndarray
    paths: int
    p: float
    diverged_paths: int


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(moment) against time over a window."""

    slope: float
    intercept: float
    window: tuple[float, float]
    r_squared: float
    censored: int


@dataclass(frozen=True)
class PathwiseExponentSummary:
    """Distribution of per-path exponents log|X_K| / (K delta).

    ``censored`` counts paths whose terminal norm hit the underflow floor;
    diverged paths are excluded from the quantiles and counted separately.
    """

    horizon: float
    paths: int
    diverged: int
    censored: int
    q05: float
    q50: float
    q95: float
    max_exponent: float
    gammas: np.ndarray


@dataclass(frozen=True)
class StabilityRun:
    """Moment curve and pathwise summary obtained from one set of paths."""

    moments: MomentEstimate
    pathwise: PathwiseExponentSummary


def _moment_estimate(result, p: float) -> MomentEstimate:
    alive = result.alive
    safe = np.maximum(alive, 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a moment that overflows: nan stderr
        means = np.where(alive > 0, result.moment_sum / safe, np.nan)
        var = (result.moment_sqsum - safe * means * means) / np.maximum(alive - 1, 1)
        var = np.maximum(var, 0.0)
        stderrs = np.where(alive > 1, np.sqrt(var / safe), np.nan)
    times = np.arange(result.steps + 1) * result.delta
    return MomentEstimate(times, means, stderrs, alive.copy(), result.paths, p, result.diverged_paths)


def _pathwise_summary(result) -> PathwiseExponentSummary:
    horizon = result.steps * result.delta
    valid = result.first_divergence < 0
    diverged = result.paths - int(np.count_nonzero(valid))
    terminal = result.terminal_norm[valid]
    if terminal.size == 0:
        raise EstimationError("all paths diverged before the horizon; no pathwise exponents")
    if np.isinf(float(np.log(UNDERFLOW_FLOOR)) / horizon):  # a denormal horizon: a floored exponent overflows
        raise EstimationError(f"pathwise exponents log|X_T| / T overflow at the horizon T = {horizon}")
    censored = int(np.count_nonzero(terminal <= UNDERFLOW_FLOOR))
    gammas = np.log(np.maximum(terminal, UNDERFLOW_FLOOR)) / horizon
    q05, q50, q95 = np.quantile(gammas, [0.05, 0.50, 0.95])
    return PathwiseExponentSummary(
        horizon, result.paths, diverged, censored,
        float(q05), float(q50), float(q95), float(np.max(gammas)), gammas,
    )


def _moment_run(model, policy_or_radius, scheme, p, x0, delta, steps, paths, seed, refinement, workers):
    radius = scheme_radius(policy_or_radius, scheme, delta)
    return run_paths(model, radius, x0, delta, steps, paths, seed, refinement, moment_p=p, workers=workers)


def run_stability_mc(
    model: SdeModel,
    policy_or_radius,
    scheme: str,
    p: float,
    x0,
    delta: float,
    steps: int,
    paths: int,
    seed: int,
    *, refinement: int = 1, workers: int = 1,
) -> StabilityRun:
    """One Monte Carlo pass yielding both the moment curve and the pathwise summary.

    ``refinement`` and ``workers`` go to ``run_paths``, whose rules every argument meets.  Terminal
    norms at or below ``UNDERFLOW_FLOOR`` are floored there and counted as censored.
    """
    result = _moment_run(model, policy_or_radius, scheme, p, x0, delta, steps, paths, seed, refinement, workers)
    return StabilityRun(_moment_estimate(result, p), _pathwise_summary(result))


def estimate_moment_curve(
    model: SdeModel,
    policy_or_radius,
    scheme: str,
    p: float,
    x0,
    delta: float,
    steps: int,
    paths: int,
    seed: int,
    *, refinement: int = 1, workers: int = 1,
) -> MomentEstimate:
    """Sample mean of |X_k|^p at every step, over ``paths`` independent paths."""
    result = _moment_run(model, policy_or_radius, scheme, p, x0, delta, steps, paths, seed, refinement, workers)
    return _moment_estimate(result, p)


def estimate_as_exponent(
    model: SdeModel,
    policy_or_radius,
    x0,
    delta: float,
    steps: int,
    paths: int,
    seed: int,
    scheme: str = "mtem",
    *, refinement: int = 1, workers: int = 1,
) -> PathwiseExponentSummary:
    """Per-path decay exponents at the terminal time, with quantiles and max."""
    if _check_count("steps", steps) * _check_step("delta", delta) < 1.0:
        raise InputError(f"terminal time {steps * delta} must be >= 1 for a pathwise exponent")
    return _pathwise_summary(_moment_run(model, policy_or_radius, scheme, None, x0, delta, steps, paths, seed,
                                         refinement, workers))


def fit_exponent(estimate: MomentEstimate, window: tuple[float, float]) -> ExponentFit:
    """Least-squares slope of log(max(moment, UNDERFLOW_FLOOR)) against time over a window.

    The window must contain at least 10 grid points; if it does but fewer
    than 10 of them still have surviving paths, the data (not the window) is
    at fault and an ``EstimationError`` is raised.  Points clamped at the
    floor, as pathwise exponents are, are counted as censored but kept in the fit.
    """
    try:
        t_lo, t_hi = window
    except (TypeError, ValueError):
        raise InputError(f"window: must be a pair (t_lo, t_hi), got {window!r}") from None
    t_lo, t_hi = _check_real("window", t_lo), _check_real("window", t_hi)
    times = estimate.times
    horizon = times[-1]
    snap = _GRID_SNAP * horizon
    if not (t_lo < t_hi):
        raise InputError(f"fit window must satisfy t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if t_lo < -snap or t_hi > horizon + snap:
        raise InputError(f"fit window [{t_lo}, {t_hi}] outside the horizon [0, {horizon}]")
    in_window = (times >= t_lo - snap) & (times <= t_hi + snap)
    if int(np.count_nonzero(in_window)) < _MIN_FIT_POINTS:
        raise InputError(
            f"fit window [{t_lo}, {t_hi}] contains fewer than {_MIN_FIT_POINTS} grid points"
        )
    usable = in_window & (estimate.alive > 0) & np.isfinite(estimate.means)
    if int(np.count_nonzero(usable)) < _MIN_FIT_POINTS:
        raise EstimationError(
            "fewer than 10 usable points in the fit window; too many paths diverged"
        )
    t_sel = times[usable]
    m_sel = estimate.means[usable]
    censored = int(np.count_nonzero(m_sel <= UNDERFLOW_FLOOR))
    y = np.log(np.maximum(m_sel, UNDERFLOW_FLOOR))
    # polyfit divides its design columns by these norms; at times near 1e-298
    # the squares underflow, and LAPACK would print an error before failing
    scales = np.sqrt((np.vander(t_sel, 2) ** 2).sum(axis=0))
    if not np.all(np.isfinite(scales) & (scales > 0.0)):
        raise EstimationError(f"least-squares fit over [{t_lo}, {t_hi}] cannot be scaled: "
                              "the squared times underflow or overflow")
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slope, intercept = np.polyfit(t_sel, y, 1)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"least-squares fit over [{t_lo}, {t_hi}] failed: {exc}") from None
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        raise EstimationError(f"least-squares fit over [{t_lo}, {t_hi}] is not finite")
    fitted = slope * t_sel + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else float(ss_res == 0.0)
    return ExponentFit(float(slope), float(intercept), (t_lo, t_hi), r_squared, censored)


# --- lemma verifiers --------------------------------------------------------


@dataclass(frozen=True)
class GlobalLipschitzReport:
    """Sampled check that truncated coefficients are 3 L_h - Lipschitz globally."""

    radius: float
    bound: float
    rel_slack: float
    pairs: int
    inside_pairs: int
    outside_pairs: int
    straddling_pairs: int
    max_ratio_drift: float
    max_ratio_diffusion: float
    drift_passed: bool
    diffusion_passed: bool

    @property
    def passed(self) -> bool:
        return self.drift_passed and self.diffusion_passed


def _pair_block(rng, model, r_first, r_second):
    rows, norms = _gaussian_directions(rng, 2 * r_first.size, model.dimension)
    first, second = np.split(rows / norms[:, None], 2)
    return r_first[:, None] * first, r_second[:, None] * second


def verify_lemma_global_lipschitz(
    model: SdeModel,
    radius: float,
    trials: int = 100_000,
    seed: int = 0,
) -> GlobalLipschitzReport:
    """Sample state pairs and bound the truncated difference quotients by 3 L_h.

    Pairs are stratified over the three geometric cases (both inside the
    ball, both outside out to ``LIPSCHITZ_RADIUS_MULTIPLE`` h, straddling) so
    every branch of the truncation is exercised.  This is a theorem, not a
    statistic: a single violating pair beyond the relative slack
    ``LIPSCHITZ_REL_SLACK`` fails the report.  A sampled state whose
    truncated drift or diffusion is not finite, or a pair whose difference
    quotient overflows, raises ``EvaluationError``.
    """
    trials, seed, h = _check_count("trials", trials), _check_seed("seed", seed), _check_step("radius", radius)
    if (outer := LIPSCHITZ_RADIUS_MULTIPLE * h) == np.inf:
        raise InputError(f"radius: 10 h must be finite, got {radius!r}")
    _check_size(4 * trials * model.dimension)  # the largest array: both coefficients at both states of each pair
    rng = _stream(seed)
    n_inside = n_outside = trials // 3
    n_straddle = trials - n_inside - n_outside

    cases = ((n_inside, (0.0, h), (0.0, h)), (n_outside, (h, outer), (h, outer)), (n_straddle, (0.0, h), (h, outer)))
    blocks = [_pair_block(rng, model, rng.uniform(*a, n), rng.uniform(*b, n)) for n, a, b in cases if n]

    x = np.concatenate([b[0] for b in blocks])
    y = np.concatenate([b[1] for b in blocks])
    gaps = state_norms(x - y)
    distinct = gaps > 0.0
    x, y, gaps = x[distinct], y[distinct], gaps[distinct]

    states = np.concatenate([x, y])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # one not finite raises below instead
        f, g = (truncated_batch(c, states, h) for c in (model.drift, model.diffusion))
        ratios = np.column_stack([state_norms(np.subtract(*np.split(v, 2))) / gaps for v in (f, g)])
    _check_finite(np.hstack([f, g]), "truncated drift or diffusion", states)
    _check_finite(ratios, "difference quotient of the truncated coefficients", x)
    ratio_f, ratio_g = (float(r) for r in ratios.max(axis=0))

    bound = 3.0 * float(model.lipschitz_bound(h))
    limit = bound * (1.0 + LIPSCHITZ_REL_SLACK)
    return GlobalLipschitzReport(h, bound, LIPSCHITZ_REL_SLACK, int(gaps.size), n_inside, n_outside, n_straddle,
                                 ratio_f, ratio_g, ratio_f <= limit, ratio_g <= limit)


@dataclass(frozen=True)
class LambdaPreservationReport:
    """Sampled check that truncation does not raise the stability functional."""

    radius: float
    p: float
    lam: float
    supremum: float
    minimum: float
    points: int
    tolerance: float
    passed: bool


def verify_lemma_lambda_preserved(
    model: SdeModel,
    radius: float,
    p: float,
    lam: float,
    seed: int = 0,
) -> LambdaPreservationReport:
    """Sample the stability functional of the truncated coefficients.

    The states are those of ``SamplingPlan(r_min=h / 100, r_max=100 h,
    seed=seed)``, spanning both sides of the truncation ball.  The verdict
    passes when the sampled supremum stays at or below -lam + ``LAMBDA_TOLERANCE``,
    i.e. truncation preserved the asserted decay rate.  ``lam`` must be finite
    but may have either sign, as a sampled estimate for an unstable model
    does.  A sampled value that is not finite, or that float64 may round by
    more than ``LAMBDA_TOLERANCE``, so that no verdict can be drawn, raises
    ``EvaluationError``.
    """
    h = _check_step("radius", radius)
    p, lam = _check_moment_order("p", p), _check_real("lam", lam)
    points = sample_states(SamplingPlan(r_min=h / 100.0, r_max=100.0 * h, seed=seed), model.dimension)
    values = _sampled_functional(points, lambda s: truncated_batch(model.drift, s, h),
                                 lambda s: truncated_batch(model.diffusion, s, h), p, LAMBDA_TOLERANCE)
    sup = float(np.max(values))
    return LambdaPreservationReport(h, p, lam, sup, float(np.min(values)), int(values.size),
                                    LAMBDA_TOLERANCE, sup <= -lam + LAMBDA_TOLERANCE)
