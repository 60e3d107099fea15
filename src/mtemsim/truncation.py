"""Truncation radius policies and radially truncated coefficient evaluation.

The truncated drift agrees with f inside the closed ball of radius h and is
extended positively homogeneously outside it:

    f_h(x) = f(x)                         for |x| <= h,
    f_h(x) = (|x| / h) * f(h * x / |x|)   for |x| >  h,

and likewise for the diffusion.  Unlike a clamped truncation this extension
is unbounded, which is what preserves the decay rate of the stability
functional outside the ball.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InputError
from .models import SdeModel, _at_state, _check_radius, _check_step, _coefficient_values, state_norms

__all__ = [
    "TruncationPolicy",
    "StepConditionRow",
    "StepConditionReport",
    "derive_h_from_lipschitz",
    "policy_from_lipschitz",
    "example41_policy",
    "default_policy",
    "resolve_radius",
    "truncated_batch",
    "eval_f_delta",
    "eval_g_delta",
    "verify_step_condition",
]

_BRACKET = (1e-6, 1e9)  # the search interval before it is widened
# +inf as a radius that scales: fmax(|x|, R) = R for finite |x|, so both factors are 1
UNTRUNCATED = float(np.finfo(float).max)
_BRACKET_GROWTH = 1e3
_MAX_BRACKET_EXPANSIONS = 4


@dataclass(frozen=True)
class TruncationPolicy:
    """A step-size to truncation-radius map h with validity bound delta_star.

    ``radius_fn`` must be strictly positive and nonincreasing on
    (0, delta_star], so the radius grows as the step size shrinks.
    """

    radius_fn: Callable[[float], float]
    delta_star: float

    def __post_init__(self):
        _check_step("delta_star", self.delta_star)

    def radius(self, delta: float) -> float:
        """h(delta); rejects step sizes outside (0, delta_star]."""
        if (delta := _check_step("delta", delta)) > self.delta_star:
            raise InputError(f"delta: {delta} exceeds the truncation policy's validity bound {self.delta_star}")
        return _check_step("radius", self.radius_fn(delta))


def derive_h_from_lipschitz(lipschitz_bound: Callable[[float], float], delta: float,
                            tol: float | None = None) -> float:
    """Invert l(R) = 1 / (R * L_R^4) at the given step size by bisection.

    Since L_R is nondecreasing, l is strictly decreasing, and the radius
    solving l(R) = delta satisfies the step condition L_{h}^4 * delta = 1 / h.
    The search starts on [1e-6, 1e9] and is widened a thousandfold at each
    end up to four times; a target still outside it raises ``BracketError``,
    as does an l(R) that floats cannot hold (L_R = 0, or L_R^4 overflowing).
    ``tol`` bounds the final bisection width and defaults to 1e-12 times the
    upper end of the search interval.
    """
    delta, tol = _check_step("delta", delta), None if tol is None else _check_step("tol", tol)

    def decay(radius: float) -> float:
        level = lipschitz_bound(radius)
        try:
            return 1.0 / (radius * level**4)
        except (ZeroDivisionError, OverflowError):
            raise BracketError(f"l(R) = 1 / (R * L_R^4) has no float value at R = {radius}, "
                               f"where L_R = {level!r}") from None

    lo, hi = _BRACKET
    expansions = 0
    while not decay(lo) > delta > decay(hi):
        if expansions >= _MAX_BRACKET_EXPANSIONS:
            raise BracketError(
                f"l(R) does not straddle delta = {delta} on [{lo}, {hi}]: "
                f"l({lo}) = {decay(lo):.6g}, l({hi}) = {decay(hi):.6g}"
            )
        lo /= _BRACKET_GROWTH
        hi *= _BRACKET_GROWTH
        expansions += 1

    if tol is None:
        tol = 1e-12 * hi

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if decay(mid) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def policy_from_lipschitz(lipschitz_bound: Callable[[float], float]) -> TruncationPolicy:
    """Truncation policy, valid for step sizes up to 1, whose radius is the bisection inverse of l(R).

    For another validity bound or tolerance, build ``TruncationPolicy(radius_fn,
    delta_star)`` around :func:`derive_h_from_lipschitz`.
    """
    return TruncationPolicy(lambda delta: derive_h_from_lipschitz(lipschitz_bound, delta), 1.0)


def example41_policy() -> TruncationPolicy:
    """The analytic radius h(delta) = sqrt((delta^(-1/5) - 1) / 3) for example41.

    Valid for delta <= 4^-5, where h >= 1 and the step-condition product
    L_h^4 * delta collapses to delta^(1/5).
    """

    def radius_fn(delta: float) -> float:
        return np.sqrt((delta ** -0.2 - 1.0) / 3.0)

    return TruncationPolicy(radius_fn, delta_star=4.0**-5)


def default_policy(model: SdeModel) -> TruncationPolicy:
    """The preferred policy for a model: analytic for example41, derived otherwise."""
    if model.name == "example41":
        return example41_policy()
    return policy_from_lipschitz(model.lipschitz_bound)


def resolve_radius(policy_or_radius, delta: float | None = None) -> float:
    """Turn a policy-or-radius argument into a concrete radius.

    Accepts a positive number (used as-is; ``inf`` disables truncation) or a
    ``TruncationPolicy`` plus the step size to evaluate it at.
    """
    if isinstance(policy_or_radius, TruncationPolicy):
        if delta is None:
            raise InputError("a step size is required to evaluate a TruncationPolicy")
        return policy_or_radius.radius(delta)
    return _check_radius("radius", policy_or_radius)


def truncation_factors(norms: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
    """Columns h / max(|x|, h), projecting states onto the ball, and max(|x|, h) / h, scaling back.

    ``radius`` is one radius, +inf for none, or one finite radius per row,
    ``UNTRUNCATED`` for none.  Inside the ball both factors are exactly 1.
    """
    if np.ndim(radius) == 0:
        radius = min(radius, UNTRUNCATED)
    reach = np.fmax(norms, radius)  # |x| outside the ball, h inside it
    return (radius / reach)[..., None], (reach / radius)[..., None]


def truncated_batch(coefficient, xs: np.ndarray, radius, norms: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a coefficient with radial truncation over a batch of states.

    ``xs`` has shape (n, d); ``norms`` may carry its row norms when the
    caller already has them, and ``radius`` is as in ``truncation_factors``.
    The coefficient is called once, on the states projected onto the closed
    ball, and the result is scaled back by |x| / h.  Inside the ball, and at
    finite states for an infinite radius, that is the raw coefficient, bit for
    bit; ``fmax`` keeps lanes at zero or with a NaN norm on that branch, as
    the comparison |x| > h would.
    """
    xs = np.asarray(xs, dtype=float)
    inward, outward = truncation_factors(state_norms(xs) if norms is None else norms, radius)
    return outward * _coefficient_values("coefficient", coefficient, inward * xs)


def eval_f_delta(model: SdeModel, policy_or_radius, x, delta: float | None = None) -> np.ndarray:
    """Truncated drift at a single state; ``EvaluationError`` if it is not finite."""
    h = resolve_radius(policy_or_radius, delta)
    return _at_state(model, x, lambda xs: truncated_batch(model.drift, xs, h), "truncated drift")


def eval_g_delta(model: SdeModel, policy_or_radius, x, delta: float | None = None) -> np.ndarray:
    """Truncated diffusion at a single state; ``EvaluationError`` if it is not finite."""
    h = resolve_radius(policy_or_radius, delta)
    return _at_state(model, x, lambda xs: truncated_batch(model.diffusion, xs, h), "truncated diffusion")


@dataclass(frozen=True)
class StepConditionRow:
    delta: float
    h: float
    lipschitz_at_h: float
    product: float


@dataclass(frozen=True)
class StepConditionReport:
    """Pointwise audit of the step condition L_{h(delta)}^4 * delta -> 0."""

    rows: tuple[StepConditionRow, ...]
    passed: bool  # the product is nonincreasing as delta decreases


def verify_step_condition(
    policy: TruncationPolicy,
    lipschitz_bound: Callable[[float], float],
    deltas: Sequence[float],
) -> StepConditionReport:
    """Tabulate h, L_h and the product L_h^4 * delta for each step size.

    The verdict passes when the product is nonincreasing as delta decreases
    over the supplied grid, the checkable finite surrogate of the vanishing
    limit the policy must satisfy.
    """
    if not (isinstance(deltas, Sequence) or isinstance(deltas, np.ndarray) and deltas.ndim == 1) or not len(deltas):
        raise InputError(f"deltas: must be a non-empty sequence of step sizes, got {deltas!r}")
    rows = []
    for delta in deltas:
        h = policy.radius(delta)  # validates (0, delta_star]
        delta, level = _check_step("delta", delta), float(lipschitz_bound(h))
        rows.append(StepConditionRow(delta, h, level, level**4 * delta))
    ordered = sorted(rows, key=lambda row: row.delta, reverse=True)
    passed = all(
        later.product <= earlier.product * (1.0 + 1e-12)
        for earlier, later in zip(ordered, ordered[1:])
    )
    return StepConditionReport(tuple(rows), passed)
