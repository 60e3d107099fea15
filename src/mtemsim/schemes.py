"""Brownian paths, the stepping kernel and the interpolants: the layer under :mod:`.engine`.

Nothing here imports the engine, which owns the stepping loop, the overflow
guard and ``simulate_path``.  Each path owns an independent random stream,
``models._stream(master_seed, path_index)``: ``SeedSequence(entropy=master_seed,
spawn_key=(path_index,))`` feeding a Philox counter-based bit generator, whose
Gaussians come from ``Generator.standard_normal``.  That derivation is the
package's pinned reproducibility contract: a (master seed, path index, step,
refinement, horizon) tuple determines a trajectory bit-for-bit, independent of
execution order or how paths are grouped into batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .models import (SdeModel, _at_state, _check_count, _check_real, _check_seed, _check_size, _check_step,
                     _coefficient_values, _stream, state_norms)
from .truncation import resolve_radius, truncation_factors

__all__ = [
    "DEFAULT_REFINEMENT",
    "SCHEMES",
    "BrownianPath",
    "TrajectoryRecord",
    "path_generator",
    "scheme_radius",
    "advance_states",
    "step_mtem",
    "interpolate_step_process",
    "interpolate_continuous_mtem",
]

DEFAULT_REFINEMENT = 16

SCHEMES = ("mtem", "em")

_GRID_SNAP = 1e-9  # a time within this relative distance of a grid point or the horizon is on it


def path_generator(master_seed: int, path_index: int) -> np.random.Generator:
    """The random stream of one path: Philox seeded from (master seed, path index)."""
    return _stream(master_seed, path_index)


@dataclass(frozen=True)
class BrownianPath:
    """Seeded fine-grid Wiener increments for one path."""

    master_seed: int
    path_index: int
    delta: float
    refinement: int
    fine: np.ndarray  # (steps, refinement)

    @classmethod
    def generate(cls, master_seed: int, path_index: int, delta: float, steps: int,
                 refinement: int = DEFAULT_REFINEMENT) -> "BrownianPath":
        """The path's (steps, refinement) fine increments, each N(0, delta / refinement); too many: MemoryError."""
        delta = _check_step("delta", delta)
        master_seed, path_index = _check_seed("master_seed", master_seed), _check_seed("path_index", path_index)
        steps, refinement = _check_count("steps", steps), _check_count("refinement", refinement)
        _check_size(steps * refinement)
        z = path_generator(master_seed, path_index).standard_normal(steps * refinement)
        fine = (math.sqrt(delta / refinement) * z).reshape(steps, refinement)
        return cls(master_seed, path_index, delta, refinement, fine)

    @property
    def steps(self) -> int:
        return self.fine.shape[0]

    def coarse(self) -> np.ndarray:
        """Coarse increments, exactly the row sums of the fine grid."""
        return self.fine.sum(axis=1)


@dataclass(frozen=True)
class TrajectoryRecord:
    """States of one simulated path under a named scheme.

    On divergence the record stops at the first offending state (which is
    kept, flagged, so the blow-up is visible); otherwise it holds all
    ``steps + 1`` states.
    """

    scheme: str
    x0: np.ndarray
    delta: float
    states: np.ndarray  # (n_recorded, d)
    diverged: bool
    first_divergence_step: int | None = None

    @property
    def num_steps(self) -> int:
        return self.states.shape[0] - 1

    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.delta


def scheme_radius(policy_or_radius, scheme: str, delta: float) -> float:
    """The radius of a scheme in ``SCHEMES``: h(delta) for mtem, +inf for em, which nothing else says."""
    if scheme == "em":
        return math.inf
    if scheme == "mtem":
        return resolve_radius(policy_or_radius, delta)
    raise InputError(f"scheme: must be one of {', '.join(SCHEMES)}, got {scheme!r}")


def advance_states(
    model: SdeModel, radius, states: np.ndarray, delta: float, db: np.ndarray,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """One explicit step x + f_h(x) delta + g_h(x) dB over a batch of states.

    ``states`` has shape (n, d) and ``db`` shape (n,); all lanes share the
    step size, and ``radius`` is as in ``truncation_factors``.  ``norms``, the
    row norms of ``states`` if the caller has them, spares recomputing them.
    Drift and diffusion are evaluated at the same projected states.  This is
    the single stepping kernel used everywhere, so a path advances
    bit-identically whether it is simulated alone or in a batch, under one
    radius or beside lanes with others.
    """
    inward, outward = truncation_factors(state_norms(states) if norms is None else norms, radius)
    projected = inward * states
    f_vals = outward * _coefficient_values("drift", model.drift, projected)
    g_vals = outward * _coefficient_values("diffusion", model.diffusion, projected)
    return states + f_vals * delta + g_vals * db[..., None]


def step_mtem(model: SdeModel, policy_or_radius, x, delta: float, db: float) -> np.ndarray:
    """Single truncated Euler step from state ``x`` with increment ``db``; ``EvaluationError`` if it is not finite."""
    delta, db = _check_step("delta", delta), _check_real("db", db)
    h = resolve_radius(policy_or_radius, delta)
    return _at_state(model, x, lambda xs: advance_states(model, h, xs, delta, np.array([db])), "truncated Euler step")


def interpolate_step_process(record: TrajectoryRecord, t: float) -> np.ndarray:
    """Piecewise-constant interpolant: the state at step floor(t / delta).

    Right-continuous on [k delta, (k+1) delta); the terminal time maps to the
    last recorded state.  Times within a relative 1e-9 of a grid point snap
    to it.
    """
    horizon, t = record.num_steps * record.delta, _check_real("t", t)
    if not 0.0 <= t <= horizon * (1.0 + _GRID_SNAP) + _GRID_SNAP * record.delta:
        raise InputError(f"time {t} outside the recorded horizon [0, {horizon}]")
    u = t / record.delta
    k = int(math.floor(u))
    if u - k > 1.0 - _GRID_SNAP:
        k += 1
    k = min(k, record.num_steps)
    return record.states[k].copy()


def interpolate_continuous_mtem(
    model: SdeModel,
    policy_or_radius,
    record: TrajectoryRecord,
    path: BrownianPath,
    t: float,
) -> np.ndarray:
    """Frozen-coefficient continuous interpolant on the path's fine grid.

    Within a coarse interval the coefficients stay evaluated at the step's
    starting state, and the Brownian displacement is the partial sum of that
    step's fine increments, so the interpolant hits every recorded state
    exactly at the coarse grid points.  ``t`` must lie on the fine grid
    (multiples of delta / refinement); anything else is rejected rather than
    silently bridged.  ``EvaluationError`` if the interpolated state is not finite.
    """
    if path.delta != record.delta:
        raise InputError(f"path delta {path.delta} differs from record delta {record.delta}")
    if path.steps < record.num_steps:
        raise InputError("path is shorter than the recorded trajectory")
    h = resolve_radius(policy_or_radius, record.delta)
    m = path.refinement
    fine_dt = record.delta / m
    u = _check_real("t", t) / fine_dt
    if not -0.5 <= u < record.num_steps * m + 0.5:  # the nearest fine point must be recorded
        raise InputError(f"time {t} outside the recorded horizon")
    idx = int(math.floor(u + 0.5))
    if abs(u - idx) > _GRID_SNAP * max(1.0, abs(u)):
        raise InputError(f"time {t} is not on the fine grid of spacing {fine_dt}")
    k, j = divmod(idx, m)
    if j == 0:
        return record.states[k].copy()
    db = np.array([np.sum(path.fine[k, :j])])
    return _at_state(model, record.states[k], lambda xs: advance_states(model, h, xs, j * fine_dt, db),
                     "interpolated state")
