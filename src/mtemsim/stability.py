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

from .engine import CHUNK_PATHS, run_paths
from .errors import EstimationError, InputError
from .models import SdeModel, SamplingPlan, _check_moment_order, functional_values, sample_states, state_norms
from .schemes import OVERFLOW_GUARD, scheme_radius
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
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(alive > 0, result.moment_sum / safe, np.nan)
        var = (result.moment_sqsum - safe * means * means) / np.maximum(alive - 1, 1)
        var = np.maximum(var, 0.0)
        stderrs = np.where(alive > 1, np.sqrt(var / safe), np.nan)
    times = np.arange(result.steps + 1) * result.delta
    return MomentEstimate(times, means, stderrs, alive.copy(), result.paths, p, result.diverged_paths)


def _pathwise_summary(result, floor: float) -> PathwiseExponentSummary:
    horizon = result.steps * result.delta
    valid = result.first_divergence < 0
    diverged = result.paths - int(np.count_nonzero(valid))
    terminal = result.terminal_norm[valid]
    if terminal.size == 0:
        raise EstimationError("all paths diverged before the horizon; no pathwise exponents")
    censored = int(np.count_nonzero(terminal <= floor))
    gammas = np.log(np.maximum(terminal, floor)) / horizon
    q05, q50, q95 = np.quantile(gammas, [0.05, 0.50, 0.95])
    return PathwiseExponentSummary(
        horizon, result.paths, diverged, censored,
        float(q05), float(q50), float(q95), float(np.max(gammas)), gammas,
    )


def _run(model, policy_or_radius, scheme, x0, delta, steps, paths, seed, **kwargs):
    """Resolve the scheme's truncation radius and run the paths."""
    return run_paths(model, scheme_radius(model, policy_or_radius, scheme, delta), x0, delta, steps, paths, seed,
                     **kwargs)


def _moment_run(model, policy_or_radius, scheme, p, x0, delta, steps, paths, seed, **kwargs):
    """Validate a moment run and step it with per-step |X_k|^p sums switched on."""
    if paths < 2:
        raise InputError(f"at least 2 paths are required, got {paths}")
    _check_moment_order(p)
    return _run(model, policy_or_radius, scheme, x0, delta, steps, paths, seed, moment_p=p, **kwargs)


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
    *,
    refinement: int = 1,
    workers: int = 1,
    overflow_guard: float = OVERFLOW_GUARD,
    floor: float = UNDERFLOW_FLOOR,
    chunk_paths: int = CHUNK_PATHS,
) -> StabilityRun:
    """One Monte Carlo pass yielding both the moment curve and the pathwise summary."""
    result = _moment_run(
        model, policy_or_radius, scheme, p, x0, delta, steps, paths, seed, refinement=refinement,
        want_terminal=True, overflow_guard=overflow_guard, workers=workers, chunk_paths=chunk_paths,
    )
    return StabilityRun(_moment_estimate(result, p), _pathwise_summary(result, floor))


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
    **kwargs,
) -> MomentEstimate:
    """Sample mean of |X_k|^p at every step, over ``paths`` independent paths."""
    result = _moment_run(model, policy_or_radius, scheme, p, x0, delta, steps, paths, seed, **kwargs)
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
    floor: float = UNDERFLOW_FLOOR,
    **kwargs,
) -> PathwiseExponentSummary:
    """Per-path decay exponents at the terminal time, with quantiles and max."""
    if steps * delta < 1.0:
        raise InputError(f"terminal time {steps * delta} must be >= 1 for a pathwise exponent")
    result = _run(model, policy_or_radius, scheme, x0, delta, steps, paths, seed, want_terminal=True, **kwargs)
    return _pathwise_summary(result, floor)


def fit_exponent(estimate: MomentEstimate, window: tuple[float, float], floor: float = UNDERFLOW_FLOOR) -> ExponentFit:
    """Least-squares slope of log(max(moment, floor)) against time over a window.

    The window must contain at least 10 grid points; if it does but fewer
    than 10 of them still have surviving paths, the data (not the window) is
    at fault and an ``EstimationError`` is raised.  Points clamped at the
    floor are counted as censored but kept in the fit.
    """
    if not floor > 0.0:
        raise InputError(f"floor must be positive, got {floor}")
    t_lo, t_hi = float(window[0]), float(window[1])
    times = estimate.times
    horizon = times[-1]
    snap = 1e-9 * horizon
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
    censored = int(np.count_nonzero(m_sel <= floor))
    y = np.log(np.maximum(m_sel, floor))
    # polyfit divides its design columns by these norms; at times near 1e-298
    # the squares underflow, and LAPACK would print an error before failing
    scales = np.sqrt((np.vander(t_sel, 2) ** 2).sum(axis=0))
    if not np.all(np.isfinite(scales) & (scales > 0.0)):
        raise EstimationError(f"least-squares fit over [{t_lo}, {t_hi}] cannot be scaled: "
                              "the squared times underflow or overflow")
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            slope, intercept = np.polyfit(t_sel, y, 1)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"least-squares fit over [{t_lo}, {t_hi}] failed: {exc}") from None
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        raise EstimationError(f"least-squares fit over [{t_lo}, {t_hi}] is not finite")
    fitted = slope * t_sel + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
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
    n = r_first.size
    d = model.dimension
    u = rng.standard_normal((2 * n, d))
    norms = state_norms(u)
    degenerate = norms == 0.0
    if np.any(degenerate):
        u[degenerate] = 0.0
        u[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    u /= norms[:, None]
    return r_first[:, None] * u[:n], r_second[:, None] * u[n:]


def verify_lemma_global_lipschitz(
    model: SdeModel,
    radius: float,
    trials: int = 100_000,
    radius_multiple: float = 10.0,
    seed: int = 0,
    rel_slack: float = 1e-9,
) -> GlobalLipschitzReport:
    """Sample state pairs and bound the truncated difference quotients by 3 L_h.

    Pairs are stratified over the three geometric cases (both inside the
    ball, both outside, straddling) so every branch of the truncation is
    exercised.  This is a theorem, not a statistic: a single violating pair
    beyond the relative slack fails the report.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if not radius_multiple > 1.0:
        raise InputError(f"radius_multiple must exceed 1, got {radius_multiple}")
    h = float(radius)
    if not h > 0.0:
        raise InputError(f"radius must be positive, got {radius}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    n_inside = trials // 3
    n_outside = trials // 3
    n_straddle = trials - n_inside - n_outside
    outer = radius_multiple * h

    blocks = []
    if n_inside:
        blocks.append(_pair_block(rng, model, rng.uniform(0.0, h, n_inside), rng.uniform(0.0, h, n_inside)))
    if n_outside:
        blocks.append(_pair_block(rng, model, rng.uniform(h, outer, n_outside), rng.uniform(h, outer, n_outside)))
    if n_straddle:
        blocks.append(_pair_block(rng, model, rng.uniform(0.0, h, n_straddle), rng.uniform(h, outer, n_straddle)))

    x = np.concatenate([b[0] for b in blocks])
    y = np.concatenate([b[1] for b in blocks])
    gaps = state_norms(x - y)
    distinct = gaps > 0.0
    x, y, gaps = x[distinct], y[distinct], gaps[distinct]

    fx = truncated_batch(model.drift, x, h)
    fy = truncated_batch(model.drift, y, h)
    gx = truncated_batch(model.diffusion, x, h)
    gy = truncated_batch(model.diffusion, y, h)
    ratio_f = float(np.max(state_norms(fx - fy) / gaps))
    ratio_g = float(np.max(state_norms(gx - gy) / gaps))

    bound = 3.0 * float(model.lipschitz_bound(h))
    return GlobalLipschitzReport(
        h, bound, rel_slack, int(gaps.size), n_inside, n_outside, n_straddle,
        ratio_f, ratio_g, ratio_f <= bound * (1.0 + rel_slack), ratio_g <= bound * (1.0 + rel_slack),
    )


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
    plan: SamplingPlan | None = None,
    tolerance: float = 1e-6,
) -> LambdaPreservationReport:
    """Sample the stability functional of the truncated coefficients.

    Radii default to [h/100, 100 h], spanning both sides of the truncation
    ball.  The verdict passes when the sampled supremum stays at or below
    -lam + tolerance, i.e. truncation preserved the asserted decay rate.
    """
    h = float(radius)
    if not h > 0.0:
        raise InputError(f"radius must be positive, got {radius}")
    _check_moment_order(p)
    if plan is None:
        plan = SamplingPlan(r_min=h / 100.0, r_max=100.0 * h)
    points = sample_states(plan, model.dimension)
    f_vals = truncated_batch(model.drift, points, h)
    g_vals = truncated_batch(model.diffusion, points, h)
    values = functional_values(points, f_vals, g_vals, p)
    if not np.all(np.isfinite(values)):
        bad = points[~np.isfinite(values)][0]
        raise EstimationError(f"truncated stability functional is not finite at x = {bad!r}")
    sup = float(np.max(values))
    passed = sup <= -lam + tolerance
    return LambdaPreservationReport(
        h, p, float(lam), sup, float(np.min(values)), int(values.size), tolerance, passed,
    )
