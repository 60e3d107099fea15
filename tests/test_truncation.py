import math

import numpy as np
import pytest

import mtemsim as m
from mtemsim.errors import BracketError, EvaluationError, InputError
from mtemsim.models import state_norms
from mtemsim.truncation import resolve_radius, truncated_batch


def reference_truncated(fn, x, h):
    """Displayed-formula oracle: plain scalar evaluation of the truncation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = math.sqrt(float(np.dot(x, x)))
    if r <= h:
        return np.asarray(fn(x), dtype=float)
    return (r / h) * np.asarray(fn(h * x / r), dtype=float)


def test_derive_h_example41_constants(ex41):
    # l(2) = 1 / (2 * 13^4) since L_2 = max(1 + 12, 2 + 4) = 13
    delta = 1.0 / (2.0 * 13.0**4)
    root = m.derive_h_from_lipschitz(ex41.lipschitz_bound, delta, tol=1e-12)
    assert root == pytest.approx(2.0, abs=1e-9)


def test_derive_h_constant_bound_closed_form():
    # L == 1 gives l(R) = 1/R, so the inverse at 0.1 is 10
    root = m.derive_h_from_lipschitz(lambda r: 1.0, 0.1, tol=1e-12)
    assert root == pytest.approx(10.0, rel=1e-12)


def test_derive_h_default_bracket_expands():
    # root at R = 1e10, outside the default [1e-6, 1e9] bracket
    root = m.derive_h_from_lipschitz(lambda r: 1.0, 1e-10)
    assert root == pytest.approx(1e10, rel=1e-9)
    # root at 1e22 stays unreachable after the capped expansions
    with pytest.raises(BracketError):
        m.derive_h_from_lipschitz(lambda r: 1.0, 1e-22)


def test_derive_h_finds_a_root_that_only_the_fourth_widening_reaches():
    # the bracket's upper end is 1e9, then 1e12, 1e15, 1e18 and 1e21
    assert m.derive_h_from_lipschitz(lambda r: 1.0, 1e-20) == pytest.approx(1e20, rel=1e-9)


def test_derive_h_rejects_bad_tol(ex41):
    with pytest.raises(InputError):
        m.derive_h_from_lipschitz(ex41.lipschitz_bound, 1e-5, tol=-1.0)


def test_policy_radius_validity(ex41_policy):
    with pytest.raises(InputError):
        ex41_policy.radius(1e-2)  # above delta_star = 4^-5
    with pytest.raises(InputError):
        ex41_policy.radius(0.0)
    assert ex41_policy.radius(4.0**-5) == pytest.approx(1.0)


def test_policy_radius_positive_decreasing(ex41_policy):
    deltas = np.geomspace(1e-9, 4.0**-5, 40)
    radii = [ex41_policy.radius(d) for d in deltas]
    assert all(h > 0.0 for h in radii)
    # h grows as delta shrinks
    assert all(a >= b for a, b in zip(radii, radii[1:]))


def test_policy_from_lipschitz_matches_closed_form():
    model = m.linear(-1.0, 0.5)  # L == 1, so h(delta) = 1/delta
    policy = m.policy_from_lipschitz(model.lipschitz_bound)
    # default tol is 1e-12 * R_hi = 1e-3 on the default bracket
    assert policy.radius(1e-3) == pytest.approx(1e3, abs=1e-3)


def test_default_policy_selection(ex41):
    analytic, derived = m.default_policy(ex41), m.default_policy(m.linear(1.0, 1.0))
    assert analytic.delta_star == 4.0**-5 and derived.delta_star == 1.0
    assert analytic.radius(1e-5) == m.example41_policy().radius(1e-5) == math.sqrt((1e-5**-0.2 - 1.0) / 3.0)
    assert derived.radius(1e-3) == m.derive_h_from_lipschitz(lambda r: 1.0, 1e-3)  # L == 1


def test_eval_f_delta_examples(ex41):
    assert m.eval_f_delta(ex41, 2.0, 1.0)[0] == pytest.approx(2.0)
    # (4/2) * f(2) = 2 * 10
    assert m.eval_f_delta(ex41, 2.0, 4.0)[0] == pytest.approx(20.0)
    assert m.eval_f_delta(ex41, 2.0, 0.0)[0] == 0.0


def test_eval_g_delta_examples(ex41):
    assert m.eval_g_delta(ex41, 2.0, 1.0)[0] == pytest.approx(2.0 * math.sqrt(3.0))
    # (4/2) * g(2) = 2 * 2 sqrt(24)
    assert m.eval_g_delta(ex41, 2.0, 4.0)[0] == pytest.approx(4.0 * math.sqrt(24.0))
    assert m.eval_g_delta(ex41, 2.0, 0.0)[0] == 0.0


def test_eval_accepts_policy_with_delta(ex41, ex41_policy):
    h = ex41_policy.radius(5e-4)
    direct = m.eval_f_delta(ex41, h, 3.0)
    via_policy = m.eval_f_delta(ex41, ex41_policy, 3.0, delta=5e-4)
    np.testing.assert_array_equal(direct, via_policy)
    with pytest.raises(InputError):
        m.eval_f_delta(ex41, ex41_policy, 3.0)  # policy without a step size


# Warnings are errors in this suite, so each case also checks that no numpy warning comes first.
@pytest.mark.parametrize("evaluate, match", [
    (lambda model, h, x: m.eval_f_delta(model, h, x), "truncated drift"),
    (lambda model, h, x: m.eval_g_delta(model, h, x), "truncated diffusion"),
    (lambda model, h, x: m.step_mtem(model, h, x, 1e-3, 0.1), "truncated Euler step"),
], ids=["eval_f_delta", "eval_g_delta", "step_mtem"])
@pytest.mark.parametrize("radius, x", [(math.inf, 1e200), (1e-323, 1.0)], ids=["f(x)-overflows", "x/h-overflows"])
def test_a_single_state_value_that_is_not_finite_is_an_evaluation_error(ex41, evaluate, match, radius, x):
    with pytest.raises(EvaluationError, match=f"{match} is not finite at x = "):
        evaluate(ex41, radius, x)


def test_resolve_radius_rejects_nonpositive():
    with pytest.raises(InputError):
        resolve_radius(-1.0)
    with pytest.raises(InputError):
        resolve_radius(0.0)
    assert resolve_radius(math.inf) == math.inf


def test_truncation_matches_reference_oracle(ex41):
    rng = np.random.default_rng(11)
    h = 2.0
    xs = rng.uniform(-8.0, 8.0, size=(500, 1))
    batch_f = truncated_batch(ex41.drift, xs, h)
    batch_g = truncated_batch(ex41.diffusion, xs, h)
    for i in range(xs.shape[0]):
        np.testing.assert_allclose(batch_f[i], reference_truncated(ex41.drift, xs[i], h), rtol=1e-12)
        np.testing.assert_allclose(batch_g[i], reference_truncated(ex41.diffusion, xs[i], h), rtol=1e-12)


def test_truncation_identity_inside_ball_bitwise(ex41):
    rng = np.random.default_rng(12)
    h = 2.0
    xs = rng.uniform(-h, h, size=(200, 1))
    np.testing.assert_array_equal(truncated_batch(ex41.drift, xs, h), ex41.drift(xs))


def test_truncation_boundary_continuity(ex41):
    # at |x| = h both branch formulas coincide since |x|/h = 1
    for h in (0.5, 1.0, 2.0, 5.0):
        for sign in (1.0, -1.0):
            x = np.array([sign * h])
            inside = m.eval_f_delta(ex41, h, x)
            outside_formula = (h / h) * np.asarray(ex41.drift(h * x / h), dtype=float)
            np.testing.assert_array_equal(inside, outside_formula)


def test_truncation_radial_equivariance_outside(ex41):
    rng = np.random.default_rng(13)
    h = 1.5
    for _ in range(100):
        x = np.array([rng.uniform(1.01 * h, 50.0) * rng.choice([-1.0, 1.0])])
        r = abs(float(x[0]))
        lhs = m.eval_f_delta(ex41, h, x)
        rhs = (r / h) * m.eval_f_delta(ex41, h, h * x / r)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def masked_truncated_batch(coefficient, xs, radius):
    """The masked gather-and-scatter truncation, kept as a bitwise oracle."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(coefficient(xs), dtype=float)
    if np.isinf(radius):
        return values
    norms = state_norms(xs)  # the package's norm, which does not overflow at 1e200
    outside = norms > radius
    if np.any(outside):
        if np.may_share_memory(values, xs) or not values.flags.writeable:
            values = values.copy()
        sub = xs[outside]
        sub_norms = norms[outside][:, None]
        projected = (radius / sub_norms) * sub
        values[outside] = (sub_norms / radius) * np.asarray(coefficient(projected), dtype=float)
    return values


def _rotating_cubic(x):
    """A 3-d coefficient that mixes coordinates and grows superlinearly."""
    return x[..., ::-1] * np.einsum("...i,...i->...", x, x)[..., None] - 2.0 * x


STATES = {
    1: [[0.0], [-0.0], [0.3], [-1.9], [2.0], [-2.0], [2.0000000000000004], [7.5], [-1e6]],
    # rows at zero, inside, exactly on |x| = 2 (from 3-4-5 and 1-2-2 triples), outside
    3: [[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [1.2, 1.6, 0.0], [0.0, -1.2, 1.6],
        [2 / 3, 4 / 3, -4 / 3], [3.0, -4.0, 12.0], [-1e5, 2.0, 0.5], [1e-300, 0.0, 0.0]],
}


@pytest.mark.parametrize("d,coefficient", [
    (1, m.example41().drift), (1, m.example41().diffusion), (1, lambda x: x),
    (3, _rotating_cubic), (3, lambda x: x), (3, np.sin),
])
@pytest.mark.parametrize("radius", [2.0, 1e-3, math.inf])
def test_mask_free_truncation_bitwise_equals_masked(d, coefficient, radius):
    xs = np.array(STATES[d])
    rng = np.random.default_rng(d)
    xs = np.concatenate([xs, rng.normal(scale=3.0, size=(509, d))])
    if d == 1:
        assert np.count_nonzero(np.abs(xs[:, 0]) == 2.0) == 2  # on the sphere
    else:
        assert np.count_nonzero(state_norms(xs) == 2.0) >= 2
    expected = masked_truncated_batch(coefficient, xs.copy(), radius)
    for norms in (None, state_norms(xs)):
        before = xs.copy()
        got = truncated_batch(coefficient, xs, radius, norms)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert xs.tobytes() == before.tobytes()  # the input is never written


@pytest.mark.parametrize("coefficient", [_rotating_cubic, np.sin])
def test_mask_free_truncation_keeps_non_finite_lanes_bitwise(coefficient):
    # a NaN norm fails |x| > h, so such lanes took the raw coefficient before too
    xs = np.array([[np.nan, 1.0, 0.0], [np.inf, 0.0, 1.0], [1e200, 1e200, 0.0], [0.5, 0.0, 0.0]])
    with np.errstate(all="ignore"):
        expected = masked_truncated_batch(coefficient, xs, 2.0)
        got = truncated_batch(coefficient, xs, 2.0)
    assert got.tobytes() == expected.tobytes()


def test_global_lipschitz_property_pairs(ex41):
    # pairs from a ball of radius 10 h: difference quotients <= 3 L_h
    rng = np.random.default_rng(14)
    h = 2.0
    bound = 3.0 * ex41.lipschitz_bound(h)
    x = rng.uniform(-10.0 * h, 10.0 * h, size=(100_000, 1))
    y = rng.uniform(-10.0 * h, 10.0 * h, size=(100_000, 1))
    gap = np.abs(x - y)[:, 0]
    keep = gap > 0.0
    x, y, gap = x[keep], y[keep], gap[keep]
    for coeff in (ex41.drift, ex41.diffusion):
        diffs = np.abs(truncated_batch(coeff, x, h) - truncated_batch(coeff, y, h))[:, 0]
        assert np.max(diffs / gap) <= bound * (1.0 + 1e-9)


def test_lambda_preserved_under_truncation(ex41):
    # truncated functional still tops out at -1 for p = 1/2
    h = m.example41_policy().radius(5e-4)
    report = m.verify_lemma_lambda_preserved(ex41, h, 0.5, 1.0)
    assert report.passed
    assert report.supremum == pytest.approx(-1.0, abs=1e-9)


def test_step_condition_example41_identity(ex41, ex41_policy):
    report = m.verify_step_condition(ex41_policy, ex41.lipschitz_bound, [1e-5, 1e-10])
    assert report.passed
    by_delta = {row.delta: row for row in report.rows}
    assert by_delta[1e-5].product == pytest.approx(0.1, rel=1e-12)
    assert by_delta[1e-10].product == pytest.approx(0.01, rel=1e-12)


def test_step_condition_rejects_out_of_range(ex41, ex41_policy):
    with pytest.raises(InputError):
        m.verify_step_condition(ex41_policy, ex41.lipschitz_bound, [1e-2])


def test_step_condition_flags_nonmonotone_product():
    # radius jumps upward as delta shrinks past 1e-3, inflating the product
    policy = m.TruncationPolicy(lambda d: 1.0 if d > 1e-3 else 100.0, delta_star=1.0)
    report = m.verify_step_condition(policy, lambda r: r, [2e-3, 1e-3, 5e-4])
    assert not report.passed


@pytest.mark.parametrize("rise", [0.0, 1e-9, 1e-6])
def test_step_condition_tolerates_rounding_only(rise):
    # h = 1 / delta, and L_h^4 * delta is 1 at delta = 1, then 1 + rise at delta = 1/2
    levels = {1.0: 1.0, 2.0: (2.0 * (1.0 + rise)) ** 0.25}
    policy = m.TruncationPolicy(lambda d: 1.0 / d, delta_star=1.0)
    report = m.verify_step_condition(policy, levels.__getitem__, [1.0, 0.5])
    assert [row.product for row in report.rows] == pytest.approx([1.0, 1.0 + rise], rel=1e-14, abs=0.0)
    assert report.passed == (rise == 0.0)
