import math

import numpy as np
import pytest

import mtemsim as m
from mtemsim.engine import run_paths
from mtemsim.errors import InputError


def test_fine_coarse_consistency():
    path = m.BrownianPath.generate(123, 4, 0.01, 50, refinement=8)
    np.testing.assert_array_equal(path.coarse(), path.fine.sum(axis=1))
    assert path.fine.shape == (50, 8)


def test_path_regeneration_bitwise():
    a = m.BrownianPath.generate(99, 7, 2e-3, 200, refinement=16)
    b = m.BrownianPath.generate(99, 7, 2e-3, 200, refinement=16)
    np.testing.assert_array_equal(a.fine, b.fine)
    c = m.BrownianPath.generate(99, 8, 2e-3, 200, refinement=16)
    assert not np.array_equal(a.fine, c.fine)


def test_increment_variance_sane():
    path = m.BrownianPath.generate(1, 0, 0.25, 4000, refinement=4)
    assert np.var(path.fine) == pytest.approx(0.25 / 4, rel=0.05)


@pytest.mark.parametrize("steps, refinement", [(2**62, 2), (2**61, 3)], ids=["2**62x2", "2**61x3"])
def test_a_path_numpy_cannot_index_is_a_memory_error_before_any_draw(monkeypatch, steps, refinement):
    # each count is in range, their product is not; run_paths refuses such a size by the same rule
    monkeypatch.setattr(m.schemes, "path_generator", None)  # drawing would fail on calling it
    with pytest.raises(MemoryError, match="more than numpy can index"):
        m.BrownianPath.generate(1, 0, 1e-3, steps, refinement)


def test_step_mtem_examples(ex41):
    assert m.step_mtem(ex41, 2.0, 1.0, 1e-3, 0.0)[0] == pytest.approx(1.002)
    expected = 1.002 + 0.02 * math.sqrt(3.0)
    assert m.step_mtem(ex41, 2.0, 1.0, 1e-3, 0.01)[0] == pytest.approx(expected)
    assert m.step_mtem(ex41, 2.0, 0.0, 1e-3, 0.37)[0] == 0.0


def test_step_mtem_rejects_bad_delta(ex41):
    with pytest.raises(InputError):
        m.step_mtem(ex41, 2.0, 1.0, 0.0, 0.0)


def test_zero_start_is_fixed_point(ex41, ex41_policy):
    path = m.BrownianPath.generate(5, 2, 5e-4, 100, refinement=2)
    for scheme in ("mtem", "em"):
        rec = m.simulate_path(ex41, ex41_policy, scheme, 0.0, 5e-4, 100, path)
        assert not rec.diverged
        assert np.all(rec.states == 0.0)


def test_deterministic_recursion_zero_noise():
    model = m.linear(-1.0, 0.0)
    policy = m.policy_from_lipschitz(model.lipschitz_bound)
    path = m.BrownianPath.generate(3, 0, 0.1, 10, refinement=4)
    rec_mtem = m.simulate_path(model, policy, "mtem", 1.0, 0.1, 10, path)
    rec_em = m.simulate_path(model, None, "em", 1.0, 0.1, 10, path)
    np.testing.assert_allclose(rec_mtem.states[:, 0], 0.9 ** np.arange(11), rtol=1e-12)
    np.testing.assert_array_equal(rec_mtem.states, rec_em.states)


def test_schemes_agree_bitwise_inside_ball():
    # h = 1000 for this model, so no path ever leaves the ball
    model = m.linear(-1.0, 0.4)
    policy = m.policy_from_lipschitz(model.lipschitz_bound)
    path = m.BrownianPath.generate(21, 5, 1e-3, 500)
    rec_mtem = m.simulate_path(model, policy, "mtem", 1.0, 1e-3, 500, path)
    rec_em = m.simulate_path(model, None, "em", 1.0, 1e-3, 500, path)
    assert np.max(np.abs(rec_mtem.states)) <= policy.radius(1e-3)
    np.testing.assert_array_equal(rec_mtem.states, rec_em.states)


def test_em_diverges_on_superlinear_model(ex41):
    # pilot: master seed 777, path 17 blows past the guard at step 45
    path = m.BrownianPath.generate(777, 17, 5e-4, 200, refinement=1)
    rec = m.simulate_path(ex41, None, "em", 2.0, 5e-4, 200, path)
    assert rec.diverged
    assert rec.first_divergence_step == 45
    assert rec.states.shape[0] == rec.first_divergence_step + 1
    # every state before the flagged one respects the guard
    assert np.all(np.abs(rec.states[:-1]) <= m.OVERFLOW_GUARD)


def test_mtem_survives_same_path(ex41, ex41_policy):
    path = m.BrownianPath.generate(777, 17, 5e-4, 200, refinement=1)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 2.0, 5e-4, 200, path)
    assert not rec.diverged
    assert rec.states.shape == (201, 1)


def test_simulate_path_validation(ex41, ex41_policy):
    path = m.BrownianPath.generate(1, 0, 1e-3, 10)
    with pytest.raises(InputError):
        m.simulate_path(ex41, ex41_policy, "mtem", 1.0, 5e-4, 10, path)  # delta mismatch
    with pytest.raises(InputError):
        m.simulate_path(ex41, ex41_policy, "mtem", 1.0, 1e-3, 20, path)  # too short
    with pytest.raises(InputError):
        m.simulate_path(ex41, ex41_policy, "heun", 1.0, 1e-3, 10, path)
    with pytest.raises(InputError):
        m.simulate_path(ex41, None, "mtem", 1.0, 1e-3, 10, path)


def test_step_interpolant(ex41, ex41_policy):
    path = m.BrownianPath.generate(9, 1, 5e-4, 20, refinement=8)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 1.0, 5e-4, 20, path)
    delta = 5e-4
    np.testing.assert_array_equal(m.interpolate_step_process(rec, 7 * delta), rec.states[7])
    np.testing.assert_array_equal(m.interpolate_step_process(rec, 7 * delta + delta / 2), rec.states[7])
    assert not np.array_equal(rec.states[7], rec.states[8])
    np.testing.assert_array_equal(m.interpolate_step_process(rec, 7.7 * delta), rec.states[7])  # floor, not round
    np.testing.assert_array_equal(m.interpolate_step_process(rec, 20 * delta), rec.states[20])
    with pytest.raises(InputError):
        m.interpolate_step_process(rec, -delta)
    with pytest.raises(InputError):
        m.interpolate_step_process(rec, 21 * delta)


def test_continuous_interpolant_hits_grid_states(ex41, ex41_policy):
    delta = 5e-4
    path = m.BrownianPath.generate(9, 1, delta, 20, refinement=8)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 1.0, delta, 20, path)
    h = ex41_policy.radius(delta)
    for k in (0, 5, 20):
        np.testing.assert_array_equal(
            m.interpolate_continuous_mtem(ex41, h, rec, path, k * delta), rec.states[k]
        )


def test_continuous_interpolant_grid_consistency(ex41, ex41_policy):
    # value at (k+1) delta equals one discrete step with the coarse increment
    delta = 5e-4
    path = m.BrownianPath.generate(10, 2, delta, 20, refinement=8)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 1.0, delta, 20, path)
    h = ex41_policy.radius(delta)
    coarse = path.coarse()
    for k in range(20):
        via_interp = m.interpolate_continuous_mtem(ex41, h, rec, path, (k + 1) * delta)
        via_step = m.step_mtem(ex41, h, rec.states[k], delta, coarse[k])
        np.testing.assert_array_equal(via_interp, via_step)


def test_continuous_interpolant_fine_substep(ex41, ex41_policy):
    delta = 5e-4
    path = m.BrownianPath.generate(11, 3, delta, 20, refinement=8)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 1.0, delta, 20, path)
    h = ex41_policy.radius(delta)
    k, j = 5, 3
    t = k * delta + j * delta / 8
    value = m.interpolate_continuous_mtem(ex41, h, rec, path, t)
    x = rec.states[k]
    expected = (
        x
        + m.eval_f_delta(ex41, h, x) * (j * delta / 8)
        + m.eval_g_delta(ex41, h, x) * np.sum(path.fine[k, :j])
    )
    np.testing.assert_array_equal(value, expected)


def test_continuous_interpolant_zero_noise_drift_only(ex41, ex41_policy):
    delta = 5e-4
    fine = np.zeros((10, 4))
    path = m.BrownianPath(0, 0, delta, 4, fine)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 1.0, delta, 10, path)
    h = ex41_policy.radius(delta)
    t = 2 * delta + delta / 2  # j = 2 of 4
    value = m.interpolate_continuous_mtem(ex41, h, rec, path, t)
    x = rec.states[2]
    np.testing.assert_allclose(value, x + m.eval_f_delta(ex41, h, x) * (delta / 2), rtol=1e-14)


def test_continuous_interpolant_rejects_off_grid(ex41, ex41_policy):
    delta = 5e-4
    path = m.BrownianPath.generate(12, 0, delta, 10, refinement=4)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 1.0, delta, 10, path)
    h = ex41_policy.radius(delta)
    with pytest.raises(InputError):
        m.interpolate_continuous_mtem(ex41, h, rec, path, 1.3 * delta / 4 + delta)
    with pytest.raises(InputError):
        m.interpolate_continuous_mtem(ex41, h, rec, path, 11 * delta)


@pytest.mark.parametrize("offset, refused", [(1e-7, True), (1e-10, False)])
def test_the_interpolants_snap_a_time_to_the_grid_within_the_grid_snap_only(ex41, ex41_policy, offset, refused):
    # a relative 1e-9: a time 1e-7 past the horizon or off a fine grid point is refused, 1e-10 is on it
    delta = 5e-4
    path = m.BrownianPath.generate(12, 0, delta, 10, refinement=4)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 1.0, delta, 10, path)
    h = ex41_policy.radius(delta)
    past_end, fine_point = 10 * delta * (1.0 + offset), 10 * (delta / 4) * (1.0 + offset)
    below = m.interpolate_step_process(rec, 7 * delta * (1.0 - offset))  # snaps up to step 7, or floors to 6
    np.testing.assert_array_equal(below, rec.states[6 if refused else 7])
    if refused:
        with pytest.raises(InputError, match="outside the recorded horizon"):
            m.interpolate_step_process(rec, past_end)
        with pytest.raises(InputError, match="is not on the fine grid"):
            m.interpolate_continuous_mtem(ex41, h, rec, path, fine_point)
    else:
        np.testing.assert_array_equal(m.interpolate_step_process(rec, past_end), rec.states[10])
        np.testing.assert_array_equal(m.interpolate_continuous_mtem(ex41, h, rec, path, fine_point),
                                      m.interpolate_continuous_mtem(ex41, h, rec, path, 10 * (delta / 4)))


def test_single_path_matches_batched_engine(ex41, ex41_policy):
    # grouping paths into batches must not change a single bit
    delta, steps = 5e-4, 300
    h = ex41_policy.radius(delta)
    batch = run_paths(ex41, h, 2.0, delta, steps, 7, 2024, 1, record_paths=7)
    for idx in range(7):
        path = m.BrownianPath.generate(2024, idx, delta, steps, refinement=1)
        rec = m.simulate_path(ex41, ex41_policy, "mtem", 2.0, delta, steps, path)
        np.testing.assert_array_equal(rec.states, batch.states[idx])


def test_record_invariants(ex41, ex41_policy):
    path = m.BrownianPath.generate(6, 0, 5e-4, 50, refinement=2)
    rec = m.simulate_path(ex41, ex41_policy, "mtem", 2.0, 5e-4, 50, path)
    np.testing.assert_array_equal(rec.states[0], np.array([2.0]))
    assert not rec.diverged
    assert np.all(np.abs(rec.states) <= m.OVERFLOW_GUARD)
    np.testing.assert_allclose(rec.times(), np.arange(51) * 5e-4, rtol=1e-15)
