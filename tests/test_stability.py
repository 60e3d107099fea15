import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import mtemsim as m
from mtemsim import engine
from mtemsim.engine import run_paths
from mtemsim.errors import EstimationError, EvaluationError, InputError, MtemError
from mtemsim.models import LAMBDA_TOLERANCE, SamplingPlan, functional_values, sample_states
from mtemsim.engine import RunResult
from mtemsim.stability import LambdaPreservationReport, MomentEstimate, UNDERFLOW_FLOOR, _pathwise_summary
from mtemsim.truncation import truncated_batch


def test_moment_curve_zero_start_is_zero(ex41, ex41_policy):
    est = m.estimate_moment_curve(ex41, ex41_policy, "mtem", 0.5, 0.0, 5e-4, 50, 16, seed=1)
    assert np.all(est.means == 0.0)
    assert est.diverged_paths == 0
    assert np.all(est.alive == 16)


def test_moment_curve_zero_noise_recursion():
    # deterministic recursion: |X_k|^(1/2) = 0.9^(k/2)
    model = m.linear(-1.0, 0.0)
    policy = m.policy_from_lipschitz(model.lipschitz_bound)
    est = m.estimate_moment_curve(model, policy, "mtem", 0.5, 1.0, 0.1, 10, 8, seed=2)
    np.testing.assert_allclose(est.means, 0.9 ** (np.arange(11) / 2.0), rtol=1e-12)
    np.testing.assert_allclose(est.stderrs[1:], 0.0, atol=1e-16)


def test_moment_curve_counts_divergence(ex41):
    est = m.estimate_moment_curve(ex41, None, "em", 0.5, 2.0, 5e-4, 2000, 64, seed=777)
    assert est.diverged_paths > 0
    assert est.alive[0] == 64
    assert est.alive[-1] == 64 - est.diverged_paths
    usable = est.alive > 0
    assert np.all(np.isfinite(est.means[usable]))


def test_moment_curve_requires_two_paths(ex41, ex41_policy):
    with pytest.raises(InputError):
        m.estimate_moment_curve(ex41, ex41_policy, "mtem", 0.5, 1.0, 5e-4, 10, 1, seed=3)


def test_order_insensitive_aggregation(ex41, ex41_policy):
    # engine means vs a permuted per-path recomputation
    delta, steps, paths = 5e-4, 100, 40
    est = m.estimate_moment_curve(ex41, ex41_policy, "mtem", 0.5, 2.0, delta, steps, paths, seed=51)
    values = np.empty((paths, steps + 1))
    for idx in range(paths):
        path = m.BrownianPath.generate(51, idx, delta, steps, refinement=1)
        rec = m.simulate_path(ex41, ex41_policy, "mtem", 2.0, delta, steps, path)
        values[idx] = np.abs(rec.states[:, 0]) ** 0.5
    rng = np.random.default_rng(0)
    perm = rng.permutation(paths)
    permuted_means = np.array([math.fsum(values[perm, k]) for k in range(steps + 1)]) / paths
    np.testing.assert_allclose(est.means, permuted_means, rtol=1e-12)


def test_doubling_paths_preserves_per_path_values(ex41, ex41_policy):
    small = m.estimate_as_exponent(ex41, ex41_policy, 2.0, 5e-4, 2000, 32, seed=7)
    large = m.estimate_as_exponent(ex41, ex41_policy, 2.0, 5e-4, 2000, 64, seed=7)
    np.testing.assert_array_equal(small.gammas, large.gammas[:32])


def test_fit_exponent_exact_exponential():
    times = np.linspace(0.0, 10.0, 101)
    est = MomentEstimate(times, np.exp(-0.5 * times), np.zeros_like(times),
                         np.full(times.size, 100), 100, 0.5, 0)
    fit = m.fit_exponent(est, (0.0, 10.0))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.censored == 0
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_recovers_intercept():
    times = np.linspace(0.0, 5.0, 51)
    est = MomentEstimate(times, 3.0 * np.exp(-1.2 * times), np.zeros_like(times),
                         np.full(times.size, 10), 10, 0.5, 0)
    fit = m.fit_exponent(est, (0.0, 5.0))
    assert fit.slope == pytest.approx(-1.2, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_exponent_window_validation():
    times = np.linspace(0.0, 1.0, 11)
    est = MomentEstimate(times, np.exp(-times), np.zeros_like(times),
                         np.full(times.size, 5), 5, 0.5, 0)
    with pytest.raises(InputError):
        m.fit_exponent(est, (0.0, 0.3))  # fewer than 10 grid points
    with pytest.raises(InputError):
        m.fit_exponent(est, (0.5, 0.2))
    with pytest.raises(InputError):
        m.fit_exponent(est, (0.0, 2.0))  # outside the horizon


@pytest.mark.parametrize("points, refused", [(9, True), (10, False)])
def test_a_fit_window_needs_ten_grid_points_and_ten_usable_ones(points, refused):
    times = np.arange(21) * 0.125  # exact in binary: the window ends on a grid point
    est = MomentEstimate(times, np.exp(-times), np.zeros_like(times), np.full(times.size, 5), 5, 0.5, 0)
    window = (0.0, (points - 1) * 0.125)
    alive = np.where(np.arange(times.size) < points, 5, 0)
    means = np.where(alive > 0, np.exp(-times), np.nan)
    short_lived = MomentEstimate(times, means, np.zeros_like(times), alive, 5, 0.5, 5)
    if refused:
        with pytest.raises(InputError, match="fewer than 10 grid points"):
            m.fit_exponent(est, window)
        with pytest.raises(EstimationError, match="fewer than 10 usable points"):
            m.fit_exponent(short_lived, (0.0, 2.5))
    else:
        assert m.fit_exponent(est, window).slope == pytest.approx(-1.0, abs=1e-12)
        assert m.fit_exponent(short_lived, (0.0, 2.5)).slope == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("window, refused", [
    ((0.0, 2.5 * (1.0 + 1e-7)), True), ((-2.5e-7, 2.5), True),
    ((0.0, 2.5 * (1.0 + 1e-10)), False), ((-2.5e-10, 2.5), False),
], ids=["past_end_1e-7", "before_start_1e-7", "past_end_1e-10", "before_start_1e-10"])
def test_a_fit_window_snaps_to_the_horizon_within_the_grid_snap_only(window, refused):
    # the interpolants' snap, relative to the horizon: 1e-9
    times = np.arange(21) * 0.125
    est = MomentEstimate(times, np.exp(-times), np.zeros_like(times), np.full(times.size, 5), 5, 0.5, 0)
    if refused:
        with pytest.raises(InputError, match="outside the horizon"):
            m.fit_exponent(est, window)
    else:
        assert m.fit_exponent(est, window).slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_exponent_raises_when_paths_gone():
    times = np.linspace(0.0, 1.0, 21)
    alive = np.zeros(times.size, dtype=int)
    alive[:5] = 3
    means = np.where(alive > 0, 1.0, np.nan)
    est = MomentEstimate(times, means, np.zeros_like(times), alive, 3, 0.5, 3)
    with pytest.raises(EstimationError):
        m.fit_exponent(est, (0.0, 1.0))


def test_fit_exponent_on_a_tiny_horizon():
    # the snap is relative to the horizon, so a window of 7 of 11 points stays short
    times = np.arange(11) * 1e-300
    est = MomentEstimate(times, np.exp(-times), np.zeros_like(times),
                         np.full(times.size, 5), 5, 0.5, 0)
    with pytest.raises(InputError):
        m.fit_exponent(est, (4e-300, 1e-299))
    # a least-squares fit that cannot be formed is an estimation failure
    times = np.arange(101) * 1e-300
    est = MomentEstimate(times, np.exp(-times), np.zeros_like(times),
                         np.full(times.size, 5), 5, 0.5, 0)
    with pytest.raises(EstimationError):
        m.fit_exponent(est, (4e-299, 1e-298))


def test_fit_exponent_counts_floor_censoring():
    times = np.linspace(0.0, 1.0, 21)
    means = np.exp(-times)
    means[-3:] = 0.0  # collapses to the floor inside the log
    est = MomentEstimate(times, means, np.zeros_like(times),
                         np.full(times.size, 4), 4, 0.5, 0)
    fit = m.fit_exponent(est, (0.0, 1.0))
    assert fit.censored == 3



def test_fit_exponent_censors_a_moment_exactly_at_the_floor():
    times = np.linspace(0.0, 1.0, 21)
    means = np.exp(-times)
    means[-3] = np.nextafter(UNDERFLOW_FLOOR, 1.0)  # just above the floor: not censored
    means[-2:] = UNDERFLOW_FLOOR
    est = MomentEstimate(times, means, np.zeros_like(times), np.full(times.size, 4), 4, 0.5, 0)
    assert m.fit_exponent(est, (0.0, 1.0)).censored == 2


def test_pathwise_summary_censors_a_terminal_norm_exactly_at_the_floor():
    result = RunResult.empty(5, 10, 0.1, 1)
    result.terminal_norm[:] = [UNDERFLOW_FLOOR, np.nextafter(UNDERFLOW_FLOOR, 1.0), 0.5, 0.0, np.nan]
    result.first_divergence[4] = 3
    summary = _pathwise_summary(result)
    assert (summary.censored, summary.diverged) == (2, 1)
    assert summary.gammas[0] == summary.gammas[3] == math.log(UNDERFLOW_FLOOR) / 1.0


def test_a_denormal_horizon_is_an_estimation_error_without_a_warning(ex41, ex41_policy):
    # T = 10 * 5e-324: log|X_T| / T overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="overflow at the horizon"):
            m.run_stability_mc(ex41, ex41_policy, "mtem", 0.5, 2.0, 5e-324, 10, 3, 1)

def test_as_exponent_zero_noise_value():
    model = m.linear(-1.0, 0.0)
    policy = m.policy_from_lipschitz(model.lipschitz_bound)
    summary = m.estimate_as_exponent(model, policy, 1.0, 0.1, 20, 8, seed=4)
    expected = math.log(0.9) / 0.1
    np.testing.assert_allclose(summary.gammas, expected, rtol=1e-12)
    assert summary.q05 == pytest.approx(expected, rel=1e-12)
    assert summary.q95 == pytest.approx(expected, rel=1e-12)
    assert summary.max_exponent == pytest.approx(expected, rel=1e-12)
    assert summary.censored == 0


def test_as_exponent_zero_start_fully_censored(ex41, ex41_policy):
    summary = m.estimate_as_exponent(ex41, ex41_policy, 0.0, 5e-4, 2000, 16, seed=5)
    assert summary.censored == summary.paths == 16
    assert summary.q95 == pytest.approx(math.log(UNDERFLOW_FLOOR) / 1.0)


def test_as_exponent_requires_unit_horizon(ex41, ex41_policy):
    with pytest.raises(InputError):
        m.estimate_as_exponent(ex41, ex41_policy, 1.0, 5e-4, 100, 8, seed=6)


def test_as_exponent_needs_a_horizon_of_at_least_one():
    model = m.linear(-1.0, 0.5)
    with pytest.raises(InputError, match="terminal time 0.75 must be >= 1"):
        m.estimate_as_exponent(model, math.inf, 1.0, 0.25, 3, 8, seed=6)
    assert m.estimate_as_exponent(model, math.inf, 1.0, 0.25, 4, 8, seed=6).horizon == 1.0


def test_a_moment_above_the_floor_of_1e_300_is_fitted_not_censored():
    times = np.linspace(0.0, 1.0, 11)
    means = 1e-250 * np.power(1e-4, 10.0 * times)  # 1e-250 down to 1e-290
    est = MomentEstimate(times, means, np.zeros_like(times), np.full(times.size, 5), 5, 0.5, 0)
    fit = m.fit_exponent(est, (0.0, 1.0))
    assert fit.censored == 0 and fit.slope == pytest.approx(-40.0 * math.log(10.0), rel=1e-9)


def test_as_exponent_quantile_ordering(ex41, ex41_policy):
    summary = m.estimate_as_exponent(ex41, ex41_policy, 2.0, 5e-4, 2000, 64, seed=8)
    assert summary.q05 <= summary.q50 <= summary.q95 <= summary.max_exponent
    assert summary.diverged == 0


def test_run_stability_mc_shares_paths(ex41, ex41_policy):
    run = m.run_stability_mc(ex41, ex41_policy, "mtem", 0.5, 2.0, 5e-4, 2000, 32, 9)
    separate_m = m.estimate_moment_curve(ex41, ex41_policy, "mtem", 0.5, 2.0, 5e-4, 2000, 32, 9)
    separate_a = m.estimate_as_exponent(ex41, ex41_policy, 2.0, 5e-4, 2000, 32, 9)
    np.testing.assert_array_equal(run.moments.means, separate_m.means)
    np.testing.assert_array_equal(run.pathwise.gammas, separate_a.gammas)


def test_worker_count_never_changes_results(ex41, ex41_policy, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_PATHS", 128)  # 6 segments: workers 3 and 8 share them differently
    runs = [m.run_stability_mc(ex41, ex41_policy, "mtem", 0.5, 2.0, 5e-4, 500, 700, 10, workers=w)
            for w in (1, 3, 8)]
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0].moments.means, other.moments.means)
        np.testing.assert_array_equal(runs[0].moments.stderrs, other.moments.stderrs)
        np.testing.assert_array_equal(runs[0].pathwise.gammas, other.pathwise.gammas)


def test_lemma_global_lipschitz_example41(ex41):
    report = m.verify_lemma_global_lipschitz(ex41, 2.0, trials=100_000, seed=42)
    assert report.passed
    assert report.bound == pytest.approx(39.0)  # 3 * L_2 = 3 * 13
    assert report.max_ratio_drift <= 39.0 * (1 + 1e-9)
    assert report.max_ratio_diffusion <= 39.0 * (1 + 1e-9)
    # pairs straddle all three truncation branches
    assert report.inside_pairs > 0 and report.outside_pairs > 0 and report.straddling_pairs > 0


def test_lemma_global_lipschitz_linear_ratio():
    model = m.linear(-2.0, 0.5)
    report = m.verify_lemma_global_lipschitz(model, 1.0, trials=10_000, seed=1)
    assert report.passed
    # homogeneous coefficients are untouched by truncation
    assert report.max_ratio_drift == pytest.approx(2.0, rel=1e-12)
    assert report.max_ratio_diffusion == pytest.approx(0.5, rel=1e-12)


def test_a_difference_quotient_beyond_3_lh_by_a_relative_1e_6_fails_the_lipschitz_report():
    # the drift 3x has difference quotient 3 everywhere: exactly 3 L_h for L = 1, beyond it by 1e-6 for L = 1 - 1e-6,
    # which the relative slack of 1e-9 does not cover
    def model(level):
        return m.SdeModel("three_x", 1, lambda x: 3.0 * x, lambda x: 0.0 * x, lambda radius: level)

    assert m.verify_lemma_global_lipschitz(model(1.0), 1.0, trials=300).passed
    short = m.verify_lemma_global_lipschitz(model(1.0 - 1e-6), 1.0, trials=300)
    assert not short.drift_passed and short.diffusion_passed


def test_lemma_global_lipschitz_validation(ex41):
    with pytest.raises(InputError):
        m.verify_lemma_global_lipschitz(ex41, 2.0, trials=0)
    with pytest.raises(InputError):
        m.verify_lemma_global_lipschitz(ex41, -1.0)


def test_lemma_lambda_preserved_cases(ex41):
    assert m.verify_lemma_lambda_preserved(ex41, 2.0, 0.5, 1.0).passed
    linear = m.linear(-1.25, 1.0)
    assert m.verify_lemma_lambda_preserved(linear, 3.0, 0.5, 1.5).passed
    overstated = m.verify_lemma_lambda_preserved(linear, 3.0, 0.5, 2.0)
    assert not overstated.passed
    assert overstated.supremum == pytest.approx(-1.5, rel=1e-9)


@pytest.mark.parametrize("verify", [
    lambda model: m.verify_lemma_global_lipschitz(model, math.inf),
    lambda model: m.verify_lemma_lambda_preserved(model, math.inf, 0.5, 1.0),
], ids=["global_lipschitz", "lambda_preserved"])
def test_the_verifiers_refuse_an_infinite_radius(ex41, verify):
    with pytest.raises(InputError, match="radius: must be finite and real, got inf"):
        verify(ex41)


# the lambda verifier leaves its range [h / 100, 100 h] to the rules of SamplingPlan
@pytest.mark.parametrize("verify, radius, match", [
    (lambda model, h: m.verify_lemma_lambda_preserved(model, h, 0.5, 1.0), 1e307,
     "r_max / r_min must be finite"),  # 100 h is inf
    (lambda model, h: m.verify_lemma_global_lipschitz(model, h, trials=30), 1e308,
     re.escape("radius: 10 h must be finite, got 1e+308")),  # 10 h is inf
    (lambda model, h: m.verify_lemma_lambda_preserved(model, h, 0.5, 1.0), 1e-323,
     "r_min: must be a positive real number or inf, got 0.0"),  # h / 100 is 0
], ids=["lambda_preserved_huge", "global_lipschitz_huge", "lambda_preserved_tiny"])
def test_the_verifiers_refuse_a_radius_whose_sampling_range_is_not_positive_and_finite(ex41, verify, radius, match):
    with pytest.raises(InputError, match=match):
        verify(ex41, radius)


@pytest.mark.parametrize("seed", [0, 5])
def test_lambda_verifier_samples_the_plan_of_its_seed(ex41, seed):
    h = 2.0
    points = sample_states(SamplingPlan(r_min=h / 100.0, r_max=100.0 * h, seed=seed), 1)
    values = functional_values(points, truncated_batch(ex41.drift, points, h),
                               truncated_batch(ex41.diffusion, points, h), 0.5)
    report = m.verify_lemma_lambda_preserved(ex41, h, 0.5, 1.0, seed=seed)
    assert (report.supremum, report.minimum, report.points) == (np.max(values), np.min(values), values.size)


def test_lambda_verifier_refuses_a_functional_that_is_not_finite():
    model = m.SdeModel("blows_up", 1, lambda x: np.where(x > 0.3, np.inf, -x), lambda x: 0.0 * x, lambda r: 1.0)
    with pytest.raises(EvaluationError, match="stability functional is not finite"):
        m.verify_lemma_lambda_preserved(model, 1.0, 0.5, 1.0)


@pytest.mark.parametrize("radius", [5e4, 1e8, 1e20, 1e-78], ids=repr)
def test_lambda_verifier_refuses_a_radius_where_float64_cannot_resolve_the_functional(ex41, radius):
    # at p = 1/2 example41's functional is -1 from terms near 6 |x|^2 that cancel: at 5e4 their rounding
    # exceeds the tolerance, at 1e8 the sampled supremum reads 8; at 1e-78, |x|^4 is subnormal
    with warnings.catch_warnings(), pytest.raises(EvaluationError, match=re.escape(
            f"stability functional cannot be resolved to {LAMBDA_TOLERANCE:g} at x = ")):
        warnings.simplefilter("error")
        m.verify_lemma_lambda_preserved(ex41, radius, 0.5, 1.0)


@pytest.mark.parametrize("radius, supremum, minimum", [
    (2.0, -0.9999999999999964, -1.0000000000000036),
    (1e3, -0.9999999990686774, -1.0000000009313226),
], ids=repr)
def test_lambda_verifier_reports_a_radius_it_can_resolve_as_before(ex41, radius, supremum, minimum):
    report = m.verify_lemma_lambda_preserved(ex41, radius, 0.5, 1.0)
    assert report == LambdaPreservationReport(radius, 0.5, 1.0, supremum, minimum, 528, 1e-6, True)


def test_lambda_verifier_resolves_a_linear_model_at_any_radius():
    # its functional, mu + sigma^2 / 2 + (p - 2) / 2 sigma^2, has no term that grows with the radius
    report = m.verify_lemma_lambda_preserved(m.linear(-1.0, 0.5), 1e20, 0.5, 1.0)
    assert report.passed and report.supremum == pytest.approx(-1.0625, rel=1e-15)


# Warnings are errors in this suite, so each case also checks that no numpy
# overflow or invalid-value warning comes before the error.
@pytest.mark.parametrize("evaluate, radius, match", [
    (lambda model, h: m.verify_lemma_global_lipschitz(model, h, trials=30), 1e300, "truncated drift or diffusion"),
    (lambda model, h: m.verify_lemma_global_lipschitz(model, h, trials=30), 1e305, "truncated drift or diffusion"),
    (lambda model, h: m.verify_lemma_global_lipschitz(model, h, trials=30), 1.7e306, "truncated drift or diffusion"),
    (lambda model, h: m.verify_lemma_lambda_preserved(model, h, 0.5, 1.0), 1e300, "stability functional"),
    (lambda model, h: m.verify_lemma_lambda_preserved(model, h, 0.5, 1.0), 1e-300, "stability functional"),
    (lambda model, h: m.verify_lemma_lambda_preserved(model, h, 0.5, 1.0), 1e305, "stability functional"),
    (lambda model, h: m.estimate_lambda(model, 0.5, SamplingPlan(r_min=h / 1e100, r_max=h)), 1e300,
     "stability functional"),
], ids=["global_lipschitz_1e300", "global_lipschitz_1e305", "global_lipschitz_1.7e306", "lambda_preserved_1e300",
        "lambda_preserved_1e-300", "lambda_preserved_1e305", "estimate_lambda_1e300"])
def test_a_sample_that_is_not_finite_is_an_evaluation_error_without_a_warning(ex41, evaluate, radius, match):
    with warnings.catch_warnings(), pytest.raises(EvaluationError, match=f"{match} is not finite at x = "):
        warnings.simplefilter("error")
        evaluate(ex41, radius)


def test_a_coefficient_that_divides_by_zero_is_an_evaluation_error_without_a_warning():
    # log(0) is -inf with numpy's divide warning: the verifier reads coefficients under models' errstate
    model = m.SdeModel("log_of_zero", 1, lambda x: np.log(0.0 * x), lambda x: 0.5 * x, lambda r: 10.0)
    with warnings.catch_warnings(), pytest.raises(EvaluationError, match="truncated drift or diffusion is not finite"):
        warnings.simplefilter("error")
        m.verify_lemma_global_lipschitz(model, 1.0, trials=30)


def test_lipschitz_verifier_refuses_a_difference_quotient_that_overflows():
    # f(x) = 1e307 x is finite for |x| <= 10, but f(x) - f(y) overflows for x near 10 and y near -10
    with pytest.raises(EvaluationError, match="difference quotient of the truncated coefficients is not finite"):
        m.verify_lemma_global_lipschitz(m.linear(1e307, 0.0), 1.0, trials=300)


HOSTILE_RADII = [0.0, -1.0, math.nan, -math.inf, math.inf, 1e308, 1e300, 1e-300, 1e-323, 2**63]
RADIUS_TAKERS = {
    "run_paths": lambda model, h: run_paths(model, h, 1.0, 1e-3, 5, 3, 1),
    "global_lipschitz": lambda model, h: m.verify_lemma_global_lipschitz(model, h, trials=30),
    "lambda_preserved": lambda model, h: m.verify_lemma_lambda_preserved(model, h, 0.5, 1.0),
    "eval_f_delta": lambda model, h: m.eval_f_delta(model, h, 1.0),
    "eval_g_delta": lambda model, h: m.eval_g_delta(model, h, 1.0),
    "step_mtem": lambda model, h: m.step_mtem(model, h, 1.0, 1e-3, 0.1),
    "simulate_path": lambda model, h: m.simulate_path(model, h, "mtem", 1.0, 1e-3, 5,
                                                      m.BrownianPath.generate(1, 0, 1e-3, 5, 2)),
    "interpolate_continuous_mtem": lambda model, h: m.interpolate_continuous_mtem(
        model, h, *_record_and_path(model), 5e-4),  # half a step: the radius truncates the interpolant
    "run_stability_mc": lambda model, h: m.run_stability_mc(model, h, "mtem", 0.5, 1.0, 1e-3, 5, 3, 1),
}


@pytest.mark.parametrize("radius", HOSTILE_RADII, ids=repr)
@pytest.mark.parametrize("call", RADIUS_TAKERS)
def test_a_hostile_radius_returns_or_raises_a_library_error(ex41, call, radius):
    # never an OverflowError, a numpy ValueError or a RuntimeWarning, which this suite raises as an error
    try:
        RADIUS_TAKERS[call](ex41, radius)
    except MtemError:
        pass


@pytest.mark.parametrize("radius", [True, "2", None], ids=repr)
@pytest.mark.parametrize("call", RADIUS_TAKERS)
def test_a_radius_that_is_not_a_real_number_is_an_input_error(ex41, call, radius):
    # the words of models._check_radius or _check_step, before any other rule or a numpy warning
    with warnings.catch_warnings(), pytest.raises(InputError, match="^radius: must be "):
        warnings.simplefilter("error")
        RADIUS_TAKERS[call](ex41, radius)


HOSTILE_VALUES = [0, -1, math.nan, -math.inf, math.inf, 1e308, 1e-323, 2**63, True, "2", None]
_VALID_SEEDS = (0, 2**63)  # a seed is any non-negative integer


def _record_and_path(model):
    path = m.BrownianPath.generate(1, 0, 1e-3, 5, 2)
    return m.simulate_path(model, 1.5, "mtem", 1.0, 1e-3, 5, path), path


def _estimate():
    times = np.linspace(0.0, 1.0, 11)
    return MomentEstimate(times, np.exp(-times), np.zeros_like(times), np.full(times.size, 5), 5, 0.5, 0)


# Every public entry point that takes a count, a seed, a time, a moment order, a step size, a bound, a
# rate, a real parameter or a single state, with the values of HOSTILE_VALUES it accepts; a count is an
# integer in [least, 2**63), a seed one >= 0, a step size, bound or rate a finite real > 0, a real
# parameter any finite real, and a state numbers, not text.
VALUE_TAKERS = {
    "run_paths-paths": (lambda model, v: run_paths(model, 1.5, 1.0, 1e-3, 5, v, 1), ()),
    "run_paths-steps": (lambda model, v: run_paths(model, 1.5, 1.0, 1e-3, v, 3, 1), ()),
    "run_paths-refinement": (lambda model, v: run_paths(model, 1.5, 1.0, 1e-3, 5, 3, 1, v), ()),
    "run_paths-record_paths": (lambda model, v: run_paths(model, 1.5, 1.0, 1e-3, 5, 3, 1, record_paths=v), (0,)),
    "run_paths-master_seed": (lambda model, v: run_paths(model, 1.5, 1.0, 1e-3, 5, 3, v), _VALID_SEEDS),
    "run_paths-moment_p": (lambda model, v: run_paths(model, 1.5, 2.0, 1e-3, 5, 3, 1, moment_p=v),
                           (1e-323, None)),  # an order in (0, 1); None: no sums
    "run_paths-workers": (lambda model, v: run_paths(model, 1.5, 1.0, 1e-3, 5, 3, 1, workers=v), ()),
    "run_paths-delta": (lambda model, v: run_paths(model, 1.5, 1.0, v, 5, 3, 1), (1e308, 1e-323, 2**63)),
    "run_stability_mc-paths": (lambda model, v: m.run_stability_mc(model, 1.5, "mtem", 0.5, 1.0, 1e-3, 5, v, 1),
                               ()),  # at least 2
    "simulate_path-steps": (lambda model, v: m.simulate_path(model, 1.5, "mtem", 1.0, 1e-3, v,
                                                             m.BrownianPath.generate(1, 0, 1e-3, 5, 2)), ()),
    "generate-master_seed": (lambda model, v: m.BrownianPath.generate(v, 0, 1e-3, 5, 2), _VALID_SEEDS),
    "generate-path_index": (lambda model, v: m.BrownianPath.generate(1, v, 1e-3, 5, 2), _VALID_SEEDS),
    "generate-steps": (lambda model, v: m.BrownianPath.generate(1, 0, 1e-3, v, 2), ()),
    "generate-refinement": (lambda model, v: m.BrownianPath.generate(1, 0, 1e-3, 5, v), ()),
    "generate-delta": (lambda model, v: m.BrownianPath.generate(1, 0, v, 5, 2), (1e308, 1e-323, 2**63)),
    "step_mtem-delta": (lambda model, v: m.step_mtem(model, 1.5, 1.0, v, 0.1), (1e-323, 2**63)),  # 1e308: inf
    "derive_h_from_lipschitz-delta": (lambda model, v: m.derive_h_from_lipschitz(model.lipschitz_bound, v),
                                      ()),  # l(R) straddles none of the finite values
    "TruncationPolicy.radius-delta": (lambda model, v: m.default_policy(model).radius(v), (1e-323,)),
    "linear-mu": (lambda model, v: m.linear(v, 0.5), (0, -1, 1e308, 1e-323, 2**63)),
    "linear-sigma": (lambda model, v: m.linear(-1.0, v), (0, -1, 1e308, 1e-323, 2**63)),
    "global_lipschitz-trials": (lambda model, v: m.verify_lemma_global_lipschitz(model, 2.0, trials=v), ()),
    "global_lipschitz-seed": (lambda model, v: m.verify_lemma_global_lipschitz(model, 2.0, trials=30, seed=v),
                              _VALID_SEEDS),
    "lambda_preserved-seed": (lambda model, v: m.verify_lemma_lambda_preserved(model, 2.0, 0.5, 1.0, seed=v),
                              _VALID_SEEDS),
    "lambda_preserved-lam": (lambda model, v: m.verify_lemma_lambda_preserved(model, 2.0, 0.5, v),
                             (0, -1, 1e308, 1e-323, 2**63)),  # either sign: a sampled estimate may be negative
    "SamplingPlan-seed": (lambda model, v: SamplingPlan(seed=v), _VALID_SEEDS),
    "SamplingPlan-radii_per_decade": (lambda model, v: SamplingPlan(radii_per_decade=v), ()),
    "SamplingPlan-directions_per_radius": (lambda model, v: SamplingPlan(directions_per_radius=v), ()),
    "interpolate_step_process-t": (lambda model, v: m.interpolate_step_process(_record_and_path(model)[0], v),
                                   (0, 1e-323)),  # the horizon is 5e-3
    "interpolate_continuous_mtem-t": (lambda model, v: m.interpolate_continuous_mtem(
        model, 1.5, *_record_and_path(model), v), (0, 1e-323)),
    "TruncationPolicy-delta_star": (lambda model, v: m.TruncationPolicy(lambda d: 1.0, v), (1e308, 1e-323, 2**63)),
    "StabilityParams-lam": (lambda model, v: m.StabilityParams(0.5, v), (1e308, 1e-323, 2**63)),
    "derive_h_from_lipschitz-tol": (lambda model, v: m.derive_h_from_lipschitz(model.lipschitz_bound, 1e-3, tol=v),
                                    (1e308, 1e-323, 2**63, None)),  # None: 1e-12 times the bracket's upper end
    "SamplingPlan-r_min": (lambda model, v: SamplingPlan(r_min=v), ()),  # r_max is 1e3: 1e3 / 1e-323 is inf
    "SamplingPlan-r_max": (lambda model, v: SamplingPlan(r_max=v), (2**63,)),  # r_min is 1e-3
    "step_mtem-db": (lambda model, v: m.step_mtem(model, 1.5, 1.0, 1e-3, v), (0, -1, 1e-323, 2**63)),  # 1e308: inf
    "fit_exponent-window_lo": (lambda model, v: m.fit_exponent(_estimate(), (v, 1.0)), (0, 1e-323)),
    "fit_exponent-window_hi": (lambda model, v: m.fit_exponent(_estimate(), (0.0, v)), ()),  # the horizon is 1
    "fit_exponent-window": (lambda model, v: m.fit_exponent(_estimate(), v), ()),  # not a pair
    "estimate_as_exponent-delta": (lambda model, v: m.estimate_as_exponent(model, 1.5, 1.0, v, 5, 3, 1),
                                   ()),  # 5 delta < 1, or every path diverges
    "verify_step_condition-delta": (lambda model, v: m.verify_step_condition(
        m.default_policy(model), model.lipschitz_bound, [v]), (1e-323,)),  # delta_star is 4^-5
    "verify_step_condition-deltas": (lambda model, v: m.verify_step_condition(
        m.default_policy(model), model.lipschitz_bound, v), ()),  # not a sequence; "2" is one of text
    "stability_functional-x": (lambda model, v: m.stability_functional(model, 0.5, v), (-1, 2**63, True)),
    "evaluate_drift-x": (lambda model, v: m.evaluate_drift(model, v), (0, -1, 1e-323, 2**63, True)),
    "evaluate_diffusion-x": (lambda model, v: m.evaluate_diffusion(model, v), (0, -1, 1e-323, 2**63, True)),
}


def _value_cases(refused: bool):
    return [pytest.param(call, value, id=f"{call}-{value!r}")
            for call, (_, valid) in VALUE_TAKERS.items() for value in HOSTILE_VALUES if (value not in valid) == refused]


# Every warning is an error here: no row may warn on its way to the error or the result.
@pytest.mark.parametrize("call, value", _value_cases(refused=True))
def test_a_hostile_count_seed_time_or_state_is_a_library_error(ex41, call, value):
    with warnings.catch_warnings(), pytest.raises(MtemError):
        warnings.simplefilter("error")
        VALUE_TAKERS[call][0](ex41, value)


@pytest.mark.parametrize("call, value", _value_cases(refused=False))
def test_the_hostile_values_an_entry_point_accepts_return_quietly(ex41, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        VALUE_TAKERS[call][0](ex41, value)


@pytest.mark.parametrize("keywords", [{"steps": math.nan}, {"master_seed": -1}, {"record_paths": -1},
                                      {"moment_p": math.inf}, {"moment_p": -0.5}, {"paths": 1, "moment_p": 0.5},
                                      {"delta": math.inf}, {"workers": "2"}], ids=repr)
def test_a_refused_count_seed_or_moment_order_starts_no_drawer(keywords, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_PATHS", 2)  # 4 paths in 2 segments: 2 workers would fork 2 drawers
    with pytest.raises(InputError):
        run_paths(m.example41(), 1.5, 2.0, **{"delta": 5e-4, "steps": 20, "paths": 4, "master_seed": 1, "workers": 2,
                                              **keywords})
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


# A state, a window or a grid of step sizes whose container is malformed, and the argument each error names.
CONTAINER_TAKERS = {
    "evaluate_drift-ragged": (lambda model: m.evaluate_drift(model, [[1], [2, 3]]), "state"),
    "run_paths-ragged_x0": (lambda model: run_paths(model, 1.5, [[1.0], [2.0, 3.0]], 1e-3, 5, 3, 1), "x0"),
    "stability_functional-ragged": (lambda model: m.stability_functional(model, 0.5, [1, [2]]), "state"),
    "fit_exponent-one_bound": (lambda model: m.fit_exponent(_estimate(), (0.0,)), "window"),
    "fit_exponent-three_bounds": (lambda model: m.fit_exponent(_estimate(), (0.0, 0.5, 1.0)), "window"),
    "verify_step_condition-generator": (lambda model: m.verify_step_condition(
        m.default_policy(model), model.lipschitz_bound, (d for d in [1e-4])), "deltas"),
    "verify_step_condition-empty": (lambda model: m.verify_step_condition(
        m.default_policy(model), model.lipschitz_bound, []), "deltas"),
}


@pytest.mark.parametrize("call", CONTAINER_TAKERS)
def test_a_malformed_container_is_an_input_error_that_names_it(ex41, call):
    take, name = CONTAINER_TAKERS[call]
    with warnings.catch_warnings(), pytest.raises(InputError, match=f"^{name}: "):
        warnings.simplefilter("error")
        take(ex41)


def test_a_moment_run_whose_start_overflows_the_squared_moment_returns_quietly():
    # |x0|^(2p) = 1e360 is not a float: the moment at t = 0 is |x0|^p, its standard error nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = m.estimate_moment_curve(m.example41(), 1.5, "mtem", 0.9, 1e200, 1e-3, 5, 3, 1)
    assert est.means[0] == pytest.approx(1e180, rel=1e-12) and math.isnan(est.stderrs[0])


_STEP_TAKERS = [call for call in VALUE_TAKERS if call.endswith("-delta")]


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("call", _STEP_TAKERS)
def test_every_step_size_meets_the_one_step_rule(ex41, call, value):
    # the words of models._check_step, before any other rule or a numpy warning
    with warnings.catch_warnings(), pytest.raises(InputError, match="^delta: must be (finite and real|positive), "):
        warnings.simplefilter("error")
        VALUE_TAKERS[call][0](ex41, value)


def test_one_step_contraction_quadrature(ex41, ex41_policy):
    # Gauss-Hermite expectation of |X_1|^(1/2) conditioned on X_0 = 1
    delta = 5e-4
    h = ex41_policy.radius(delta)
    nodes, weights = np.polynomial.hermite.hermgauss(201)
    x = 1.0
    fd = float(m.eval_f_delta(ex41, h, x)[0])
    gd = float(m.eval_g_delta(ex41, h, x)[0])
    x1 = x + fd * delta + gd * math.sqrt(2.0 * delta) * nodes
    ratio = float(np.sum(weights * np.abs(x1) ** 0.5) / math.sqrt(math.pi)) / x**0.5
    assert ratio <= 1.0 - 0.25 * delta


def test_em_decay_far_below_1e_162_is_measured_not_censored():
    # |X_K| = 0.8^2000 ~ 1.6e-194 is a float, far below where sqrt(x . x)
    # underflows (~1e-162); such a norm would censor every path at the floor
    run = m.run_stability_mc(m.linear(-200, 0), None, "em", 0.5, 1.0, 1e-3, 2000, 4, 1, refinement=1)
    assert run.pathwise.censored == 0
    assert run.pathwise.q50 == pytest.approx(math.log(0.8) / 1e-3, rel=1e-12)


@pytest.mark.parametrize("halvings", [0, 1, 2])
def test_example41_decays_at_every_step_the_policy_accepts(ex41, ex41_policy, halvings):
    # delta* = 4^-5 is the policy's bound; T = 5 (at T = 3 the q95 bound fails for some seeds)
    delta = ex41_policy.delta_star / 2**halvings
    run = m.run_stability_mc(ex41, ex41_policy, "mtem", 0.5, 2.0, delta, round(5.0 / delta), 512, 401)
    moments, pathwise = run.moments, run.pathwise
    assert moments.diverged_paths == 0 and pathwise.diverged == 0
    assert pathwise.q95 <= -0.5  # criterion 7: almost sure decay at rate 1 - eps, eps = 0.5
    # criterion 6 in the form of a bound: E|X_T|^p <= |x0|^p e^(-p (lambda - eps) T), lambda - eps = 0.5
    assert moments.means[-1] <= 2.0**0.5 * math.exp(-1.25) + 3 * moments.stderrs[-1]


# --- each reported statistic, computed a second way from the recorded paths ----------------------------
# Example41 under plain EM, from x0 = 1 at delta = 1e-2: 5 of 16 paths diverge, 11 decay to T = 2.
_RECORDED = dict(model=m.example41(), x0=1.0, delta=1e-2, steps=200, paths=16, seed=3)


@pytest.fixture(scope="module")
def recorded_run():
    """A moment run and the same paths recorded: the states do not depend on whether sums are taken."""
    c = _RECORDED
    run = m.run_stability_mc(c["model"], None, "em", 0.5, c["x0"], c["delta"], c["steps"], c["paths"], c["seed"])
    paths = run_paths(c["model"], math.inf, c["x0"], c["delta"], c["steps"], c["paths"], c["seed"],
                      record_paths=c["paths"])
    return run, paths


def test_the_recorded_run_has_diverged_and_surviving_paths(recorded_run):
    run, paths = recorded_run
    assert 0 < paths.diverged_paths == run.moments.diverged_paths == run.pathwise.diverged < paths.paths - 2
    assert run.pathwise.gammas.size == paths.paths - paths.diverged_paths


def test_moments_alive_counts_and_two_pass_stderrs_match_the_recorded_paths(recorded_run):
    run, paths = recorded_run
    est, first = run.moments, paths.first_divergence
    steps = np.arange(paths.steps + 1)
    # a path counts up to the step before the one it diverges at
    alive = (first[:, None] < 0) | (steps[None, :] < first[:, None])
    values = np.linalg.norm(paths.states, axis=-1) ** est.p
    np.testing.assert_array_equal(est.alive, alive.sum(axis=0))
    means, stderrs = [], []
    for k in steps:
        v = values[alive[:, k], k]
        means.append(v.mean())
        stderrs.append(math.sqrt(np.sum((v - v.mean()) ** 2) / (v.size - 1) / v.size))  # the two-pass formula
    np.testing.assert_allclose(est.means, means, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(est.stderrs, stderrs, rtol=1e-12, atol=0.0)
    assert est.stderrs[1:].min() > 0.0  # every later step has a spread to get wrong


def test_pathwise_quantiles_and_max_match_the_recorded_terminal_states(recorded_run):
    run, paths = recorded_run
    pw, survived = run.pathwise, paths.first_divergence < 0
    horizon = paths.steps * paths.delta
    gammas = np.log(np.maximum(np.linalg.norm(paths.states[survived, -1], axis=-1), UNDERFLOW_FLOOR)) / horizon
    np.testing.assert_allclose(pw.gammas, gammas, rtol=1e-12, atol=0.0)
    expected = [*np.quantile(gammas, [0.05, 0.50, 0.95]), gammas.max()]
    np.testing.assert_allclose([pw.q05, pw.q50, pw.q95, pw.max_exponent], expected, rtol=1e-12, atol=0.0)
    assert pw.q95 < pw.max_exponent and (pw.horizon, pw.paths, pw.censored) == (horizon, paths.paths, 0)


def test_the_fit_matches_an_independent_least_squares_formula(recorded_run):
    est = recorded_run[0].moments
    fit = m.fit_exponent(est, (0.5, 2.0))
    t = est.times[(est.times >= 0.5 - 1e-9 * 2.0) & (est.times <= 2.0 + 1e-9 * 2.0)]
    y = np.log(est.means[np.searchsorted(est.times, t)])
    slope = np.sum((t - t.mean()) * (y - y.mean())) / np.sum((t - t.mean()) ** 2)
    intercept = y.mean() - slope * t.mean()
    r_squared = 1.0 - np.sum((y - slope * t - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
    assert fit.slope == pytest.approx(slope, rel=1e-9) and fit.intercept == pytest.approx(intercept, rel=1e-9)
    assert fit.r_squared == pytest.approx(r_squared, rel=1e-9) and 0.5 < fit.r_squared < 0.9999
    assert (fit.window, fit.censored) == ((0.5, 2.0), 0)


# --- a coefficient whose values are not real, or not of the states' shape ----------------------------------
# Each returns what a slip in writing one would: its kind, its dimension, and the value it returns for states x.
HOSTILE_COEFFICIENTS = {
    "flat": (1, lambda x: -x[..., 0]),  # one value per row
    "extra-column": (1, lambda x: np.concatenate([x, x], axis=-1)),
    "transposed": (2, lambda x: x.T),  # never called with as many rows as columns here
    "0-d": (1, lambda x: 1.0),
    "complex": (1, lambda x: x + 0j),  # of the states' shape
    "text": (1, lambda x: np.full(x.shape, "x")),  # of the states' shape
}


def _hostile_model(kind: str, name: str) -> m.SdeModel:
    """A model whose coefficient ``name`` is of the hostile ``kind``, the other one -x."""
    dimension, hostile = HOSTILE_COEFFICIENTS[kind]
    drift, diffusion = (hostile, lambda x: -x) if name == "drift" else (lambda x: -x, hostile)
    return m.SdeModel(kind, dimension, drift, diffusion, lambda radius: 1.0)


def _interpolate(model):
    path = m.BrownianPath.generate(1, 0, 1e-3, 5, 2)
    record = m.simulate_path(m.linear(-1.0, 0.5) if model.dimension == 1 else m.SdeModel(
        "2-d", 2, lambda x: -x, lambda x: 0.5 * x, lambda r: 1.0), 1.5, "mtem", _x0(model), 1e-3, 5, path)
    return m.interpolate_continuous_mtem(model, 1.5, record, path, 2.5e-3)  # half a step: the coefficients are read


def _x0(model):
    return [1.0, 2.0][:model.dimension]


# Every entry point that reads a model's coefficients, and whether it reads them through truncated_batch,
# which is handed a bare callable and names it "coefficient".
COEFFICIENT_READERS = {
    "run_paths": (lambda model, name: run_paths(model, 1.5, _x0(model), 1e-3, 5, 5, 1), False),
    "run_paths-workers=2": (lambda model, name: run_paths(model, 1.5, _x0(model), 1e-3, 5, 5, 1, workers=2), False),
    "simulate_path": (lambda model, name: m.simulate_path(model, 1.5, "mtem", _x0(model), 1e-3, 5,
                                                          m.BrownianPath.generate(1, 0, 1e-3, 5, 2)), False),
    "step_mtem": (lambda model, name: m.step_mtem(model, 1.5, _x0(model), 1e-3, 0.1), False),
    "eval_delta": (lambda model, name: (m.eval_f_delta if name == "drift" else m.eval_g_delta)(
        model, 1.5, _x0(model)), True),
    "interpolate_continuous_mtem": (lambda model, name: _interpolate(model), False),
    "evaluate": (lambda model, name: (m.evaluate_drift if name == "drift" else m.evaluate_diffusion)(
        model, _x0(model)), False),
    "stability_functional": (lambda model, name: m.stability_functional(model, 0.5, _x0(model)), False),
    "check_trivial_solution": (lambda model, name: m.check_trivial_solution(model), False),
    "estimate_lambda": (lambda model, name: m.estimate_lambda(model, 0.5), False),
    "cross_check_lambda": (lambda model, name: m.cross_check_lambda(model, m.StabilityParams(0.5, 1.0)), False),
    "global_lipschitz": (lambda model, name: m.verify_lemma_global_lipschitz(model, 2.0, trials=30), True),
    "lambda_preserved": (lambda model, name: m.verify_lemma_lambda_preserved(model, 2.0, 0.5, 1.0), True),
}


@pytest.mark.parametrize("call", COEFFICIENT_READERS)
@pytest.mark.parametrize("name", ["drift", "diffusion"])
@pytest.mark.parametrize("kind", HOSTILE_COEFFICIENTS)
def test_a_misshapen_or_unreal_coefficient_is_an_input_error_that_names_it(monkeypatch, kind, name, call):
    monkeypatch.setattr(engine, "CHUNK_PATHS", 2)  # 5 paths in 3 segments: 2 workers fork 2 drawers
    take, bare = COEFFICIENT_READERS[call]
    threads = threading.active_count()
    with warnings.catch_warnings(), pytest.raises(InputError) as caught:
        warnings.simplefilter("error")
        take(_hostile_model(kind, name), name)
    assert re.match(rf"{'coefficient' if bare else name}: must map states of shape \(\d+, \d\) to real values of "
                    r"that shape, got \S+ values of shape \(", str(caught.value))
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):  # no drawer left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_a_flat_coefficient_is_refused_before_its_lanes_mix():
    # broadcast against the (n, 1) states, a (n,) result built (n, n) arrays: 811 MB at 4,096 paths
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"^drift: .* got float64 values of shape \(4096,\)$"):
            run_paths(_hostile_model("flat", "drift"), 1.5, 1.0, 1e-3, 2, 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("call", [
    lambda model: m.estimate_lambda(model, 0.5, SamplingPlan(directions_per_radius=2**62)),
    lambda model: sample_states(SamplingPlan(radii_per_decade=2**62), model.dimension),
    lambda model: m.verify_lemma_global_lipschitz(model, 2.0, trials=2**62),
], ids=["directions_per_radius", "radii_per_decade", "trials"])
def test_a_sample_numpy_cannot_index_is_a_memory_error_before_any_draw(ex41, monkeypatch, call):
    # each count is in range, the sample it asks for is not; run_paths and BrownianPath refuse such sizes alike
    monkeypatch.setattr(np, "geomspace", None)  # spacing the radii would fail on calling it
    monkeypatch.setattr(m.stability, "_pair_block", None)  # as would drawing a pair
    with pytest.raises(MemoryError, match="more than numpy can index"):
        call(ex41)
