import math
import os
import re
import warnings

import numpy as np
import pytest

import mtemsim as m
from mtemsim import engine
from mtemsim.engine import run_paths
from mtemsim.errors import EstimationError, EvaluationError, InputError, MtemError
from mtemsim.models import SamplingPlan, functional_values, sample_states
from mtemsim.engine import RunResult
from mtemsim.stability import MomentEstimate, UNDERFLOW_FLOOR, _pathwise_summary
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
