"""SDE models driven by scalar Brownian noise, and their moment-stability functional.

A model is the pair of coefficient maps (f, g) for

    dx(t) = f(x(t)) dt + g(x(t)) dB(t),    x(0) = x0 in R^d,

together with a local Lipschitz bound R -> L_R valid for both coefficients on
the closed ball of radius R.  Coefficients must broadcast over leading axes:
an input of shape (..., d) yields real values of shape (..., d), so a constant
one returns ``np.zeros_like(x)`` or the like.  Every read of a coefficient
checks this and refuses any other result with ``InputError``.  This lets the
same callables serve single-state evaluation and batched path simulation.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, InputError

__all__ = [
    "SdeModel",
    "StabilityParams",
    "SamplingPlan",
    "MODEL_KEYS",
    "as_state",
    "state_norms",
    "evaluate_drift",
    "evaluate_diffusion",
    "check_trivial_solution",
    "stability_functional",
    "functional_values",
    "sample_states",
    "estimate_lambda",
    "cross_check_lambda",
    "example41",
    "linear",
    "get_model",
]

Coefficient = Callable[[np.ndarray], np.ndarray]

LAMBDA_TOLERANCE = 1e-6  # a sampled supremum may exceed -lambda by this much


@dataclass(frozen=True)
class SdeModel:
    """An autonomous d-dimensional SDE with scalar driving Brownian motion.

    ``lipschitz_bound`` maps a radius R > 0 to a constant L_R with

        |f(x) - f(y)| v |g(x) - g(y)| <= L_R |x - y|   for |x| v |y| <= R,

    and must be nondecreasing in R.  Models with f(0) = g(0) = 0 admit the
    trivial solution x == 0; use :func:`check_trivial_solution` to test this.

    Instances are immutable and shared freely across threads; the callables
    must be pure and treat each row of a batch of states on its own.  Path
    simulation calls them from one thread at a time, on a window of paths
    at once; its drawer processes only draw Brownian increments.
    """

    name: str
    dimension: int
    drift: Coefficient
    diffusion: Coefficient
    lipschitz_bound: Callable[[float], float]

    def __post_init__(self):
        _check_count("dimension", self.dimension)


@dataclass(frozen=True)
class StabilityParams:
    """A moment order p and an asserted decay rate lambda, for :func:`cross_check_lambda`."""

    p: float
    lam: float

    def __post_init__(self):
        _check_moment_order("p", self.p)
        _check_step("lam", self.lam)


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sample of states: log-spaced radii times random unit directions.

    Directions for radius index i are drawn from a dedicated stream seeded by
    (seed, i), so enlarging ``directions_per_radius`` extends the sample
    without disturbing the points already drawn.
    """

    r_min: float = 1e-3
    r_max: float = 1e3
    radii_per_decade: int = 8
    directions_per_radius: int = 16
    seed: int = 0

    def __post_init__(self):
        r_min, r_max = _check_radius("r_min", self.r_min), _check_radius("r_max", self.r_max)
        if not r_min < r_max:
            raise InputError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if not math.isfinite(r_max / r_min):  # the count of decades sampled
            raise InputError(f"r_max / r_min must be finite, got {self.r_max} / {self.r_min}")
        _check_count("radii_per_decade", self.radii_per_decade)
        _check_count("directions_per_radius", self.directions_per_radius)
        _check_seed("seed", self.seed)


def _check_moment_order(name: str, value) -> float:
    """``value`` as a float if it is a moment order: a real number in (0, 1), but not a bool."""
    if not 0.0 < (p := _check_real(name, value)) < 1.0:
        raise InputError(f"{name}: the moment order must lie in (0, 1), got {value!r}")
    return p


def _check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int if it is an integer, Python's or numpy's but not a bool, in [least, 2**63)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not least <= value < 2**63:
        raise InputError(f"{name}: must be an integer in [{least}, 2**63), got {value!r}")  # numpy sizes are int64
    return int(value)


def _check_seed(name: str, value) -> int:
    """``value`` as an int if it is a non-negative integer of any size, Python's or numpy's but not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InputError(f"{name}: must be a non-negative integer, got {value!r}")
    return int(value)


def _check_real(name: str, value) -> float:
    """``value`` as a float if it is a finite real number, Python's or numpy's but not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            -sys.float_info.max <= value <= sys.float_info.max):  # also an int too large for a float
        raise InputError(f"{name}: must be finite and real, got {value!r}")
    return float(value)


def _check_step(name: str, value) -> float:
    """``value`` as a float if it is a step size: a positive finite real number, but not a bool."""
    if not _check_real(name, value) > 0.0:
        raise InputError(f"{name}: must be positive, got {value!r}")
    return float(value)


def _check_radius(name: str, value) -> float:
    """``value`` as a float if it is a truncation radius: a positive real number, but not a bool, or +inf for none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            0.0 < value <= sys.float_info.max or value == math.inf):  # also an int too large for a float
        raise InputError(f"{name}: must be a positive real number or inf, got {value!r}")
    return float(value)


def _check_size(*counts: int) -> None:
    """``MemoryError`` if an array of any of ``counts`` 8-byte values is more than numpy can index."""
    for n in counts:  # numpy would refuse it with a ValueError, or allocate first
        if 8 * n > np.iinfo(np.intp).max:
            raise MemoryError(f"an array of {n} 8-byte values is more than numpy can index")


def as_state(model: SdeModel, x, name: str = "state") -> np.ndarray:
    """Coerce ``x``, whose errors are named ``name``, to a float vector of the model's dimension."""
    try:
        kind = np.asarray(x).dtype.kind
    except ValueError:  # a ragged nesting of sequences, which numpy refuses as an array of objects
        kind = "O"
    if kind not in "biuf":  # numpy would parse text, such as "1"
        raise InputError(f"{name}: must be a real number or numbers, got {x!r}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (model.dimension,):
        raise InputError(f"{name}: has shape {arr.shape}, expected ({model.dimension},) for model {model.name!r}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: must be finite, got {x!r}")
    return arr


def state_norms(xs: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing state axis, which neither underflows nor overflows."""
    return np.abs(xs[..., 0]) if xs.shape[-1] == 1 else np.hypot.reduce(xs, axis=-1)


def _coefficient_values(name: str, coefficient: Coefficient, states: np.ndarray) -> np.ndarray:
    """``coefficient`` at ``states`` as floats; ``InputError``, named ``name``, unless real and of their shape."""
    values = np.asarray(coefficient(states))  # the one call of a coefficient: every read meets this rule
    if values.shape != states.shape or values.dtype.kind not in "biuf":  # a complex value would lose its part
        raise InputError(f"{name}: must map states of shape {states.shape} to real values of that shape, "
                         f"got {values.dtype} values of shape {values.shape}")
    return values.astype(float, copy=False)


def _at_state(model: SdeModel, x, evaluate: Coefficient, what: str) -> np.ndarray:
    """``evaluate`` at the one-row batch of state ``x``, its row; silent but for errors that name ``what``."""
    xs = as_state(model, x)[None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = _coefficient_values(what, evaluate, xs)[0].copy()
    _check_finite(value, what, xs)
    return value


def evaluate_drift(model: SdeModel, x) -> np.ndarray:
    """f(x) with dimension validation; ``EvaluationError`` if it is not finite."""
    return _at_state(model, x, model.drift, "drift")


def evaluate_diffusion(model: SdeModel, x) -> np.ndarray:
    """g(x) with dimension validation; ``EvaluationError`` if it is not finite."""
    return _at_state(model, x, model.diffusion, "diffusion")


def check_trivial_solution(model: SdeModel) -> bool:
    """True iff f(0) = 0 and g(0) = 0 exactly, so x == 0 solves the SDE."""
    zero = np.zeros((1, model.dimension))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # 1 / x at 0 is inf, not a warning
        values = [_coefficient_values(name, getattr(model, name), zero) for name in ("drift", "diffusion")]
    return not np.any(values)  # a NaN is not 0 either


def functional_values(xs: np.ndarray, f_vals: np.ndarray, g_vals: np.ndarray, p: float) -> np.ndarray:
    """Stability functional evaluated from precomputed coefficient values.

    For each state x with coefficient values f, g this is

        (<x, f> + |g|^2 / 2) / |x|^2 + (p - 2) / 2 * <x, g>^2 / |x|^4.

    The p-th moment of the solution decays at rate at least p * lambda when
    the supremum of this quantity over x != 0 equals -lambda < 0.
    """
    r2 = np.einsum("...i,...i->...", xs, xs)
    xf = np.einsum("...i,...i->...", xs, f_vals)
    xg = np.einsum("...i,...i->...", xs, g_vals)
    g2 = np.einsum("...i,...i->...", g_vals, g_vals)
    return (xf + 0.5 * g2) / r2 + 0.5 * (p - 2.0) * (xg * xg) / (r2 * r2)


def stability_functional(model: SdeModel, p: float, x) -> float:
    """Evaluate the stability functional at a single nonzero state.

    Raises ``DomainError`` at x = 0, where the quotient is undefined, and
    ``EvaluationError`` where its value is not finite.
    """
    _check_moment_order("p", p)
    xs = as_state(model, x)
    if not np.any(xs != 0.0):
        raise DomainError("stability functional is undefined at x = 0")
    return float(_sampled_functional(xs[None, :], model.drift, model.diffusion, p)[0])


def _gaussian_directions(rng, count: int, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` standard-normal rows and their norms; a zero row becomes the first unit vector."""
    rows = rng.standard_normal((count, dimension))
    norms = state_norms(rows)
    degenerate = norms == 0.0
    rows[degenerate] = 0.0
    rows[degenerate, 0] = norms[degenerate] = 1.0
    return rows, norms


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The package's one random stream rule: Philox seeded from ``seed`` under the spawn key ``key``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def sample_states(plan: SamplingPlan, dimension: int) -> np.ndarray:
    """Materialize the plan's sample points, shape (n_points, dimension)."""
    decades = np.log10(plan.r_max / plan.r_min)
    n_radii = max(int(np.ceil(decades * plan.radii_per_decade)) + 1, 2)
    _check_size(n_radii * (n_dir := plan.directions_per_radius) * dimension)  # before geomspace, for the radii too
    radii = np.geomspace(plan.r_min, plan.r_max, n_radii)
    points = np.empty((n_radii * n_dir, dimension))
    for i, r in enumerate(radii):
        rows, norms = _gaussian_directions(_stream(plan.seed, i), n_dir, dimension)
        points[i * n_dir : (i + 1) * n_dir] = r * (rows / norms[:, None])
    return points


def _check_finite(values: np.ndarray, what: str, points: np.ndarray) -> None:
    """``EvaluationError`` at the first of ``points`` whose value, or row of ``values``, is not finite."""
    bad = ~np.isfinite(values.reshape(len(points), -1)).all(axis=1)
    if bad.any():
        raise EvaluationError(f"{what} is not finite at x = {points[bad][0]!r}")


def _sampled_functional(points: np.ndarray, drift: Coefficient, diffusion: Coefficient, p: float,
                        resolution: float | None = None) -> np.ndarray:
    """The stability functional of ``drift`` and ``diffusion`` at sampled points, silent but for errors.

    With a ``resolution``, a point whose value float64 may round by more than it is an ``EvaluationError`` too.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_vals = _coefficient_values("drift", drift, points)
        g_vals = _coefficient_values("diffusion", diffusion, points)
        values = functional_values(points, f_vals, g_vals, p)
        if resolution is not None:
            # With u = eps / 2 and gamma_n = n u / (1 - n u), a dot product of d terms errs by gamma_d times the
            # dot of their magnitudes (Higham, "Accuracy and Stability of Numerical Algorithms", 3.1).  The first
            # term, (<x, f> + |g|^2 / 2) / |x|^2, adds a sum, a quotient and |x|^2's d roundings: gamma_{2d+2} of
            # its magnitude.  The last, (p - 2) / 2 * <x, g>^2 / |x|^4, adds 2d for squaring <x, g> and 2d + 5 for
            # p - 2, three products, |x|^2 twice and the quotient: gamma_{4d+5}.  Their sum adds one: gamma_{4d+6}
            # <= (4d + 7) u of the summed magnitudes, which are the functional of |x|, |f| and |g| at 4 - p; one u
            # more covers this bound's own rounding, so (2d + 4) eps.  While |x|^4 is normal, an underflow anywhere
            # errs by at most a few u after its quotient, which the added 1 covers; below that, nothing is bounded.
            magnitudes = functional_values(np.abs(points), np.abs(f_vals), np.abs(g_vals), 4.0 - p) + 1.0
            rounding = np.where(state_norms(points) < np.finfo(float).tiny ** 0.25, np.inf,
                                (2 * points.shape[1] + 4) * np.finfo(float).eps * magnitudes)
    _check_finite(values, "stability functional", points)
    if resolution is not None and (unresolved := ~(rounding <= resolution)).any():
        raise EvaluationError(f"stability functional cannot be resolved to {resolution:g} at x = "
                              f"{points[unresolved][0]!r}: the bound on its rounding is {rounding[unresolved][0]:.3g}")
    return values


def _functional_supremum(model: SdeModel, p: float, plan: SamplingPlan | None) -> float:
    points = sample_states(plan if plan is not None else SamplingPlan(), model.dimension)
    return float(np.max(_sampled_functional(points, model.drift, model.diffusion, p)))


def estimate_lambda(model: SdeModel, p: float, plan: SamplingPlan | None = None) -> float:
    """Sampled estimate of the decay rate lambda.

    Negates the maximum of the stability functional over the plan's points.
    The result is deterministic given the plan's seed, and can only decrease
    as the sample set is enlarged (the sampled maximum can only grow).  A
    sampled supremum is a lower bound on the true one, so for models whose
    functional is not constant the estimate may overstate lambda; defaults
    cover radii in [1e-3, 1e3].
    """
    _check_moment_order("p", p)
    return -_functional_supremum(model, p, plan)


def cross_check_lambda(model: SdeModel, params: StabilityParams, plan: SamplingPlan | None = None) -> float:
    """Check an asserted lambda against the sampled functional supremum.

    Returns the sampled supremum and warns if it exceeds ``-params.lam`` by
    more than ``LAMBDA_TOLERANCE``, which means the asserted rate is too optimistic.
    """
    sup = _functional_supremum(model, params.p, plan)
    if sup > -params.lam + LAMBDA_TOLERANCE:
        warnings.warn(
            f"sampled functional supremum {sup:.6g} exceeds -lambda = {-params.lam:.6g}; "
            "the asserted decay rate is not supported by the sampled points",
            stacklevel=2,
        )
    return sup


# --- built-in models -------------------------------------------------------

MODEL_KEYS = ("example41", "linear")


def example41() -> SdeModel:
    """Scalar SDE dx = (x + x^3) dt + 2 sqrt(x^4 + 2 x^2) dB.

    Both coefficients grow superlinearly and the drift is not one-sided
    Lipschitz, so the classical explicit EM scheme is unstable for it.  Local
    Lipschitz bound: L_R = max(1 + 3 R^2, 2 + 2 R).
    """

    def drift(x):
        return x + x**3

    def diffusion(x):
        return 2.0 * np.sqrt(x**4 + 2.0 * x**2)

    def lipschitz_bound(radius):
        return max(1.0 + 3.0 * radius * radius, 2.0 + 2.0 * radius)

    return SdeModel("example41", 1, drift, diffusion, lipschitz_bound)


def linear(mu: float, sigma: float) -> SdeModel:
    """Scalar linear SDE dx = mu x dt + sigma x dB (geometric Brownian motion); mu and sigma finite."""
    mu, sigma = _check_real("mu", mu), _check_real("sigma", sigma)
    level = max(abs(mu), abs(sigma))

    def drift(x):
        return mu * x

    def diffusion(x):
        return sigma * x

    return SdeModel("linear", 1, drift, diffusion, lambda radius: level)


def get_model(key: str, mu: float | None = None, sigma: float | None = None) -> SdeModel:
    """Build a registered model from its key.

    ``linear`` requires ``mu`` and ``sigma``; ``example41`` takes no parameters.
    """
    if key == "example41":
        if mu is not None or sigma is not None:
            raise InputError("model: 'example41' takes no parameters")
        return example41()
    if key == "linear":
        if mu is None or sigma is None:
            raise InputError("model: 'linear' requires mu and sigma")
        return linear(mu, sigma)
    raise InputError(f"model: unknown key {key!r}; known keys: {', '.join(MODEL_KEYS)}")
