import math
import warnings

import numpy as np
import pytest

import mtemsim as m
from mtemsim.errors import DomainError, EvaluationError, InputError
from mtemsim.models import SamplingPlan, sample_states, state_norms


def test_drift_examples(ex41):
    assert m.evaluate_drift(ex41, 1.0) == pytest.approx(2.0)
    assert m.evaluate_drift(ex41, 0.0) == pytest.approx(0.0)
    # direct substitution: 2 + 2**3
    assert m.evaluate_drift(ex41, 2.0) == pytest.approx(10.0)


def test_drift_dimension_mismatch(ex41):
    with pytest.raises(InputError):
        m.evaluate_drift(ex41, [1.0, 2.0])


def test_diffusion_examples(ex41):
    assert m.evaluate_diffusion(ex41, 1.0)[0] == pytest.approx(2.0 * math.sqrt(3.0))
    assert m.evaluate_diffusion(ex41, 0.0)[0] == 0.0


def test_functional_example41_is_minus_one(ex41):
    assert m.stability_functional(ex41, 0.5, 1.0) == pytest.approx(-1.0, abs=1e-9)
    assert m.stability_functional(ex41, 0.5, 3.0) == pytest.approx(-1.0, abs=1e-9)


def test_functional_example41_everywhere(ex41):
    # identically -1 at p = 1/2; the x^4 terms cancel, so watch the rounding
    for x in sample_states(SamplingPlan(seed=3), 1):
        assert m.stability_functional(ex41, 0.5, x) == pytest.approx(-1.0, abs=1e-9)


def test_functional_linear_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(50):
        mu, sigma = rng.normal(size=2)
        p = rng.uniform(0.05, 0.95)
        x = rng.normal() or 1.0
        model = m.linear(mu, sigma)
        expected = mu + 0.5 * (p - 1.0) * sigma**2
        assert m.stability_functional(model, p, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_functional_linear_constant_over_states():
    model = m.linear(-0.7, 0.3)
    rng = np.random.default_rng(5)
    xs = rng.normal(scale=10.0, size=1000)
    xs = xs[xs != 0.0]
    values = [m.stability_functional(model, 0.5, x) for x in xs]
    assert np.max(values) - np.min(values) < 1e-12


def test_functional_rejects_origin_and_bad_p(ex41):
    with pytest.raises(DomainError):
        m.stability_functional(ex41, 0.5, 0.0)
    with pytest.raises(InputError):
        m.stability_functional(ex41, 1.5, 1.0)


def test_estimate_lambda_example41(ex41):
    assert m.estimate_lambda(ex41, 0.5) == pytest.approx(1.0, abs=1e-9)


def test_estimate_lambda_linear_cases():
    # -(mu + (p-1) sigma^2 / 2) = 1.25 + 0.25
    assert m.estimate_lambda(m.linear(-1.25, 1.0), 0.5) == pytest.approx(1.5, rel=1e-12)
    assert m.estimate_lambda(m.linear(0.0, 0.0), 0.3) == 0.0


def test_estimate_lambda_deterministic(ex41):
    plan = SamplingPlan(seed=77)
    assert m.estimate_lambda(ex41, 0.5, plan) == m.estimate_lambda(ex41, 0.5, plan)


def test_estimate_lambda_monotone_under_refinement():
    # anisotropic 2-d model: the functional depends on the direction, so more
    # directions can only raise the sampled max and lower the estimate
    def drift(x):
        return np.stack([-1.0 * x[..., 0], -2.0 * x[..., 1]], axis=-1)

    def diffusion(x):
        return np.zeros_like(x)

    model = m.SdeModel("aniso", 2, drift, diffusion, lambda r: 2.0)
    estimates = [
        m.estimate_lambda(model, 0.5, SamplingPlan(directions_per_radius=n, seed=9))
        for n in (4, 16, 64)
    ]
    assert estimates[0] >= estimates[1] >= estimates[2]
    assert estimates[2] >= 1.0 - 1e-12  # true lambda is 1


def test_estimate_lambda_reports_bad_point():
    def drift(x):
        return np.where(np.abs(x) > 1.0, np.inf, -x)

    model = m.SdeModel("blowup", 1, drift, lambda x: np.zeros_like(x), lambda r: 1.0)
    with pytest.raises(EvaluationError):
        m.estimate_lambda(model, 0.5)


def test_check_trivial_solution(ex41):
    assert m.check_trivial_solution(ex41)
    assert m.check_trivial_solution(m.linear(2.0, 3.0))
    shifted = m.SdeModel("shifted", 1, lambda x: x + 1.0, lambda x: x, lambda r: 1.0)
    assert not m.check_trivial_solution(shifted)


@pytest.mark.parametrize("coefficient", [lambda x: 1.0 / x, lambda x: 0.0 / x], ids=["inf", "nan"])
def test_a_coefficient_not_finite_at_zero_has_no_trivial_solution_and_no_warning(coefficient):
    # read at the one-row zero under the errstate of every other read: numpy warns on neither division there
    model = m.SdeModel("pole", 1, lambda x: -x, coefficient, lambda r: 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not m.check_trivial_solution(model)


def test_stability_params_validation():
    params = m.StabilityParams(p=0.5, lam=1.0)
    with pytest.raises(InputError):
        m.StabilityParams(p=1.5, lam=1.0)
    with pytest.raises(InputError):
        m.StabilityParams(p=0.5, lam=-1.0)


def test_cross_check_lambda_warns_when_overstated():
    model = m.linear(-1.25, 1.0)  # true lambda = 1.5
    with pytest.warns(UserWarning):
        m.cross_check_lambda(model, m.StabilityParams(p=0.5, lam=2.0))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sup = m.cross_check_lambda(model, m.StabilityParams(p=0.5, lam=1.5))
    assert sup == pytest.approx(-1.5, rel=1e-12)


@pytest.mark.parametrize("radius", [1.0, 5.0, 10.0])
def test_local_lipschitz_audit_drift(radius, ex41):
    # 1e4 random pairs inside the ball: drift difference quotient <= L_R
    rng = np.random.default_rng(int(radius))
    for model in (ex41, m.linear(-1.0, 0.5)):
        bound = model.lipschitz_bound(radius)
        x = rng.uniform(-radius, radius, 10_000)
        y = rng.uniform(-radius, radius, 10_000)
        keep = x != y
        x, y = x[keep], y[keep]
        ratios = np.abs(model.drift(x) - model.drift(y)) / np.abs(x - y)
        assert np.max(ratios) <= bound * (1.0 + 1e-12)


def test_lipschitz_bound_nondecreasing(ex41):
    radii = np.geomspace(1e-3, 1e3, 200)
    for model in (ex41, m.linear(0.3, -2.0)):
        values = [model.lipschitz_bound(r) for r in radii]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_sampling_plan_validation():
    with pytest.raises(InputError):
        SamplingPlan(r_min=1.0, r_max=0.5)
    with pytest.raises(InputError):
        SamplingPlan(radii_per_decade=0)


@pytest.mark.parametrize("r_min, r_max", [(1e-300, 1e300), (1.0, math.inf), (np.float64(1e-300), np.float64(1e300))],
                         ids=["ratio-overflows", "r_max-infinite", "numpy-floats"])
def test_a_plan_whose_ratio_overflows_is_an_input_error(ex41, r_min, r_max):
    # warnings are errors in this suite: the check itself must not warn either
    with pytest.raises(InputError, match="r_max / r_min must be finite"):
        m.estimate_lambda(ex41, 0.5, SamplingPlan(r_min=r_min, r_max=r_max))


def test_sample_states_range_and_determinism():
    plan = SamplingPlan(r_min=0.01, r_max=10.0, seed=4)
    pts = sample_states(plan, 3)
    again = sample_states(plan, 3)
    np.testing.assert_array_equal(pts, again)
    norms = np.linalg.norm(pts, axis=1)
    assert norms.min() >= 0.01 * (1 - 1e-12) and norms.max() <= 10.0 * (1 + 1e-12)


def test_get_model_registry():
    assert m.get_model("example41").name == "example41"
    assert m.get_model("linear", mu=1.0, sigma=2.0).name == "linear"
    with pytest.raises(InputError):
        m.get_model("linear")
    with pytest.raises(InputError):
        m.get_model("example41", mu=1.0)
    with pytest.raises(InputError):
        m.get_model("nope")


def test_state_norms_neither_underflow_nor_overflow():
    one = np.array([[1e-300], [-5e-324], [1e308], [-1.7976931348623157e308], [-0.0], [-2.5]])
    assert state_norms(one).tobytes() == np.abs(one[:, 0]).tobytes()
    three = np.array([[1e-300, 0.0, 0.0], [3e200, -4e200, 0.0], [3e-170, 4e-170, 0.0], [0.0, 0.0, 0.0],
                      [np.inf, 1.0, 0.0], [np.nan, 1.0, 0.0], [3.0, 4.0, 0.0], [1e308, 1e308, 0.0],
                      [1.5e308, 1.5e308, 0.0]])
    with np.errstate(over="ignore"):  # only the last norm lies past the largest float
        got = state_norms(three)
    np.testing.assert_allclose(got[:3], [1e-300, 5e200, 5e-170], rtol=1e-15)
    assert got[3] == 0.0 and got[4] == np.inf and np.isnan(got[5]) and got[6] == 5.0
    assert got[7] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15) and got[8] == np.inf
    xs = np.random.default_rng(3).normal(scale=1e3, size=(1000, 3))
    np.testing.assert_allclose(state_norms(xs), np.sqrt(np.einsum("...i,...i->...", xs, xs)), rtol=4e-16)
