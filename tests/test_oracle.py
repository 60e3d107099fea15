"""An exact discrete-time oracle for the scheme's moment and pathwise exponents.

For a linear drift A x and diffusion sigma x, truncation is the identity:
(|x| / h) A(h x / |x|) = A x.  So the scheme is exactly
X_{k+1} = (I + A delta + sigma dB_k) X_k.  Take A = mu I + omega J, where J,
the rotation by 90 degrees, is skew and orthogonal; omega = 0 in d = 1 is
the built-in ``linear``.  Then

    |X_{k+1}| = a_k |X_k|,   a_k = sqrt((1 + mu delta + sigma dB_k)^2 + omega^2 delta^2),

so with |x0| = 1, E|X_k|^p = (E a^p)^k and the mean pathwise exponent
E log|X_K| / (K delta) is E log a / delta.  Both expectations over
dB ~ N(0, delta) come from 200-node Gauss-Hermite quadrature.

The power is in the horizon T = K delta: the standard error of the mean
exponent is about sigma / sqrt(T N), which is why delta is 0.01.  Each case
is deterministic at its fixed seed, so it passes always or never.

The ladder runs ``linear`` at every step size its policy accepts, up to
delta = 1, under the policy's finite radius h(delta), about 1 / delta here.
From |x0| = 10 h the truncation factors are not 1, yet for a linear model
they are the identity up to rounding, so |X_k| = |x0| a_0 ... a_(k-1) still.
At delta = 1, 1 + mu delta = 0 and a = sigma |N(0, 1)|, whose log is
singular at the quadrature's centre; there the closed forms
E log|N| = -(gamma_E + log 2) / 2 and E|N|^p = 2^(p/2) Gamma((p + 1) / 2) / sqrt(pi)
stand in.
"""

import math

import numpy as np
import pytest

import mtemsim as m

MU, SIGMA, OMEGA, P, DELTA, STEPS, PATHS = -1.0, 0.5, 3.0, 0.5, 0.01, 2000, 4000
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
ROTATING = m.SdeModel("rotating", 2, lambda x: MU * x + OMEGA * (x @ _J.T), lambda x: SIGMA * x,
                      lambda r: max(math.hypot(MU, OMEGA), SIGMA))


def _expect(fn, omega, delta=DELTA):
    """E fn(a) over dB ~ N(0, delta), by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    a = np.hypot(1.0 + MU * delta + SIGMA * math.sqrt(2.0 * delta) * nodes, omega * delta)
    return float(np.sum(weights * fn(a)) / math.sqrt(math.pi))


# (model, omega, x0 with |x0| = 1, workers, refinement, seed).  Both worker counts, so the caller and
# the drawer processes draw; refinements above 1, which alone see a wrong fine-increment variance.
# d = 2 runs once, at about twice the cost of d = 1: the drawing does not depend on d.
CASES = {
    "d1_w1_r1": (m.linear(MU, SIGMA), 0.0, 1.0, 1, 1, 61),
    "d1_w2_r4": (m.linear(MU, SIGMA), 0.0, 1.0, 2, 4, 62),
    "d2_w2_r3": (ROTATING, OMEGA, (0.6, 0.8), 2, 3, 64),
}


@pytest.mark.parametrize("case", CASES)
def test_both_exponents_match_the_exact_discrete_oracle(case):
    model, omega, x0, workers, refinement, seed = CASES[case]
    run = m.run_stability_mc(model, np.inf, "mtem", P, x0, DELTA, STEPS, PATHS, seed,
                             refinement=refinement, workers=workers)
    gammas = run.pathwise.gammas
    assert gammas.size == PATHS and run.pathwise.censored == 0
    rate = _expect(np.log, omega) / DELTA
    z = (gammas.mean() - rate) / (gammas.std(ddof=1) / math.sqrt(PATHS))
    assert abs(z) <= 4.0, f"mean pathwise exponent {gammas.mean():.6f} vs {rate:.6f}: z = {z:.2f}"
    m_p = _expect(lambda a: a**P, omega)
    moments = run.moments
    for k in (10, 50, 100):  # little power here, so a loose check
        z = (moments.means[k] - m_p**k) / moments.stderrs[k]
        assert abs(z) <= 4.0, f"E|X_{k}|^p {moments.means[k]:.6f} vs {m_p**k:.6f}: z = {z:.2f}"


# delta: (steps, seed).  The horizon, 20 at delta = 0.01 and 0.1, sets the power; 20 steps suffice at delta = 1.
LADDER = {0.01: (2000, 81), 0.1: (200, 82), 1.0: (20, 83)}


def _ladder_oracle(delta):
    """E log a and E a^P for ``linear(MU, SIGMA)``, in closed form where 1 + MU delta = 0."""
    if 1.0 + MU * delta != 0.0:
        return _expect(np.log, 0.0, delta), _expect(lambda a: a**P, 0.0, delta)
    scale = SIGMA * math.sqrt(delta)
    return (math.log(scale) - (np.euler_gamma + math.log(2.0)) / 2.0,
            scale**P * 2.0 ** (P / 2.0) * math.gamma((P + 1.0) / 2.0) / math.sqrt(math.pi))


@pytest.mark.parametrize("delta", LADDER)
def test_linear_exponents_match_the_oracle_at_every_step_the_policy_accepts(delta):
    model = m.linear(MU, SIGMA)
    policy = m.policy_from_lipschitz(model.lipschitz_bound)
    steps, seed = LADDER[delta]
    x0 = 10.0 * policy.radius(delta)  # outside the ball: the truncation factors run
    run = m.run_stability_mc(model, policy, "mtem", P, x0, delta, steps, PATHS, seed)
    gammas = run.pathwise.gammas
    assert gammas.size == PATHS and run.pathwise.censored == 0
    log_a, m_p = _ladder_oracle(delta)
    rate = (math.log(x0) / steps + log_a) / delta
    z = (gammas.mean() - rate) / (gammas.std(ddof=1) / math.sqrt(PATHS))
    assert abs(z) <= 4.0, f"mean pathwise exponent {gammas.mean():.6f} vs {rate:.6f}: z = {z:.2f}"
    for k in sorted({max(1, round(t / delta)) for t in (0.5, 1.0, 2.0)}):
        want = x0**P * m_p**k
        z = (run.moments.means[k] - want) / run.moments.stderrs[k]
        assert abs(z) <= 4.0, f"E|X_{k}|^p {run.moments.means[k]:.6g} vs {want:.6g}: z = {z:.2f}"
