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
"""

import math

import numpy as np
import pytest

import mtemsim as m

MU, SIGMA, OMEGA, P, DELTA, STEPS, PATHS = -1.0, 0.5, 3.0, 0.5, 0.01, 2000, 4000
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
ROTATING = m.SdeModel("rotating", 2, lambda x: MU * x + OMEGA * (x @ _J.T), lambda x: SIGMA * x,
                      lambda r: max(math.hypot(MU, OMEGA), SIGMA))


def _expect(fn, omega):
    """E fn(a) over dB ~ N(0, DELTA), by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    a = np.hypot(1.0 + MU * DELTA + SIGMA * math.sqrt(2.0 * DELTA) * nodes, omega * DELTA)
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
