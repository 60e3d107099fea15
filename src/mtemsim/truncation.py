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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, InputError
from .models import SdeModel, as_state, state_norms

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

DEFAULT_BRACKET = (1e-6, 1e9)
_BRACKET_GROWTH = 1e3
_MAX_BRACKET_EXPANSIONS = 4


@dataclass(frozen=True)
class TruncationPolicy:
    """A step-size to truncation-radius map h with validity bound delta_star.

    ``radius_fn`` must be strictly positive and nonincreasing on
    (0, delta_star], so the radius grows as the step size shrinks.
    ``provenance`` records whether h was given analytically or derived from
    the model's Lipschitz bound.
    """

    radius_fn: Callable[[float], float]
    delta_star: float
    provenance: str = "analytic"

    def __post_init__(self):
        if not self.delta_star > 0.0:
            raise InputError(f"delta_star must be positive, got {self.delta_star}")
        if self.provenance not in ("analytic", "derived-from-L_R"):
            raise InputError(f"unknown provenance {self.provenance!r}")

    def radius(self, delta: float) -> float:
        """h(delta); rejects step sizes outside (0, delta_star]."""
        if not 0.0 < delta <= self.delta_star:
            raise InputError(
                f"step size {delta} outside the policy's validity range (0, {self.delta_star}]"
            )
        h = float(self.radius_fn(delta))
        if not (np.isfinite(h) and h > 0.0):
            raise InputError(f"policy produced a non-positive radius {h} at delta = {delta}")
        return h


def derive_h_from_lipschitz(
    lipschitz_bound: Callable[[float], float],
    delta: float,
    bracket: tuple[float, float] | None = None,
    tol: float | None = None,
) -> float:
    """Invert l(R) = 1 / (R * L_R^4) at the given step size by bisection.

    Since L_R is nondecreasing, l is strictly decreasing, and the radius
    solving l(R) = delta satisfies the step condition L_{h}^4 * delta = 1 / h.
    With the default bracket the search interval is expanded geometrically up
    to four times before giving up; an explicit bracket that does not
    straddle the target raises ``BracketError`` immediately, as does an l(R)
    that floats cannot hold (L_R = 0, or L_R^4 overflowing).  ``tol`` bounds
    the final bisection width and defaults to 1e-12 times the upper bracket.
    """
    if not delta > 0.0:
        raise InputError(f"step size must be positive, got {delta}")

    def decay(radius: float) -> float:
        level = lipschitz_bound(radius)
        try:
            return 1.0 / (radius * level**4)
        except (ZeroDivisionError, OverflowError):
            raise BracketError(f"l(R) = 1 / (R * L_R^4) has no float value at R = {radius}, "
                               f"where L_R = {level!r}") from None

    explicit = bracket is not None
    lo, hi = bracket if explicit else DEFAULT_BRACKET
    if not 0.0 < lo < hi:
        raise InputError(f"bracket must satisfy 0 < lo < hi, got [{lo}, {hi}]")

    expansions = 0
    while not decay(lo) > delta > decay(hi):
        if explicit or expansions >= _MAX_BRACKET_EXPANSIONS:
            raise BracketError(
                f"l(R) does not straddle delta = {delta} on [{lo}, {hi}]: "
                f"l({lo}) = {decay(lo):.6g}, l({hi}) = {decay(hi):.6g}"
            )
        lo /= _BRACKET_GROWTH
        hi *= _BRACKET_GROWTH
        expansions += 1

    if tol is None:
        tol = 1e-12 * hi
    if not tol > 0.0:
        raise InputError(f"tol must be positive, got {tol}")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if decay(mid) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def policy_from_lipschitz(
    lipschitz_bound: Callable[[float], float],
    delta_star: float = 1.0,
    bracket: tuple[float, float] | None = None,
    tol: float | None = None,
) -> TruncationPolicy:
    """Truncation policy whose radius is the bisection inverse of l(R)."""

    def radius_fn(delta: float) -> float:
        return derive_h_from_lipschitz(lipschitz_bound, delta, bracket=bracket, tol=tol)

    return TruncationPolicy(radius_fn, delta_star, provenance="derived-from-L_R")


def example41_policy() -> TruncationPolicy:
    """The analytic radius h(delta) = sqrt((delta^(-1/5) - 1) / 3) for example41.

    Valid for delta <= 4^-5, where h >= 1 and the step-condition product
    L_h^4 * delta collapses to delta^(1/5).
    """

    def radius_fn(delta: float) -> float:
        return np.sqrt((delta ** -0.2 - 1.0) / 3.0)

    return TruncationPolicy(radius_fn, delta_star=4.0**-5, provenance="analytic")


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
    h = float(policy_or_radius)
    if np.isnan(h) or h <= 0.0:
        raise InputError(f"truncation radius must be positive, got {h}")
    return h


def truncated_batch(coefficient, xs: np.ndarray, radius: float, norms: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a coefficient with radial truncation over a batch of states.

    ``xs`` has shape (n, d); ``norms`` may carry its row norms when the
    caller already has them.  The coefficient is called once, on the states
    projected onto the closed ball, and the result is scaled back by |x| / h.
    Inside the ball both scale factors are h / h = 1 exactly, so there the
    result is bit-identical to the raw coefficient; ``fmax`` keeps lanes at
    zero or with a NaN norm on that branch, as the comparison |x| > h would.
    """
    xs = np.asarray(xs, dtype=float)
    if np.isinf(radius):
        return np.asarray(coefficient(xs), dtype=float)
    if norms is None:
        norms = state_norms(xs)
    reach = np.fmax(norms, radius)[..., None]  # |x| outside the ball, h inside it
    values = np.asarray(coefficient((radius / reach) * xs), dtype=float)
    return (reach / radius) * values


def eval_f_delta(model: SdeModel, policy_or_radius, x, delta: float | None = None) -> np.ndarray:
    """Truncated drift at a single state."""
    h = resolve_radius(policy_or_radius, delta)
    xs = as_state(model, x)[None, :]
    return np.array(truncated_batch(model.drift, xs, h)[0])


def eval_g_delta(model: SdeModel, policy_or_radius, x, delta: float | None = None) -> np.ndarray:
    """Truncated diffusion at a single state."""
    h = resolve_radius(policy_or_radius, delta)
    xs = as_state(model, x)[None, :]
    return np.array(truncated_batch(model.diffusion, xs, h)[0])


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
    if len(deltas) == 0:
        raise InputError("at least one step size is required")
    rows = []
    for delta in deltas:
        h = policy.radius(float(delta))  # validates (0, delta_star]
        level = float(lipschitz_bound(h))
        rows.append(StepConditionRow(float(delta), h, level, level**4 * float(delta)))
    ordered = sorted(rows, key=lambda row: row.delta, reverse=True)
    passed = all(
        later.product <= earlier.product * (1.0 + 1e-12)
        for earlier, later in zip(ordered, ordered[1:])
    )
    return StepConditionReport(tuple(rows), passed)
