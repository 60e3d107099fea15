"""Chunked multi-path simulation with worker-count-independent reductions.

Paths are processed in fixed-size chunks regardless of how many workers are
deployed, each chunk is reduced with a fixed operation order, and chunk
partials are combined sequentially in chunk order with compensated
summation.  Together with the per-path seed derivation in :mod:`.schemes`
this makes every aggregate bit-identical for any worker count.

Each worker thread takes a chunk, draws its Brownian increments and then
steps it.  Drawing runs concurrently, since the Philox fill releases the
GIL; stepping is serialized by a lock, one chunk at a time.  A step is a
few dozen small numpy calls, each of which gives up the GIL and takes it
back, so two stepping threads spend their time handing the GIL over
instead of computing.  At most ``workers`` chunks are in flight.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .models import SdeModel, as_state, state_norms
from .schemes import OVERFLOW_GUARD, advance_states, fine_increments

__all__ = ["CHUNK_PATHS", "RunResult", "run_paths", "step_paths"]

# Fixed chunk width: the unit of work handed to a worker.  Must not depend on
# the worker count or reductions would change with it.
CHUNK_PATHS = 512


@dataclass
class RunResult:
    """Output of a multi-path run, or of one chunk of it."""

    paths: int
    steps: int
    delta: float
    first_divergence: np.ndarray  # (paths,), -1 where the path never diverged
    terminal_norm: np.ndarray | None  # (paths,), nan for diverged paths
    moment_sum: np.ndarray | None  # (steps + 1,)
    moment_sqsum: np.ndarray | None
    alive: np.ndarray | None  # (steps + 1,) int
    states: np.ndarray | None  # (recorded paths, steps + 1, d)

    @property
    def diverged_paths(self) -> int:
        return int(np.count_nonzero(self.first_divergence >= 0))


def step_paths(
    model: SdeModel,
    radius: float,
    x0: np.ndarray,
    delta: float,
    coarse: np.ndarray,
    *,
    moment_p: float | None = None,
    want_terminal: bool = False,
    record_paths: int = 0,
    overflow_guard: float = OVERFLOW_GUARD,
) -> RunResult:
    """Step one lane per row of the (count, steps) coarse increments from ``x0``.

    A lane is frozen at zero from the step its norm turns non-finite or
    exceeds ``overflow_guard``; the states of the first ``record_paths``
    lanes are kept up to and including that step.  Stepping ends once every
    lane is frozen.
    """
    count, steps = coarse.shape
    x = np.tile(x0, (count, 1))
    alive = np.ones(count, dtype=bool)
    first_div = np.full(count, -1, dtype=np.int64)

    recorded = min(record_paths, count)
    states = None
    if recorded > 0:
        states = np.zeros((recorded, steps + 1, model.dimension))
        states[:, 0] = x[:recorded]

    norms = state_norms(x)
    mom_sum = mom_sq = alive_count = None
    if moment_p is not None:
        mom_sum = np.empty(steps + 1)
        mom_sq = np.empty(steps + 1)
        alive_count = np.empty(steps + 1, dtype=np.int64)
        npow = norms**moment_p
        mom_sum[0] = npow.sum()
        mom_sq[0] = (npow * npow).sum()
        alive_count[0] = count

    every_alive = True  # until a lane freezes, no mask below needs applying
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            xn = advance_states(model, radius, x, delta, coarse[:, k], norms)
            norms = state_norms(xn)
            if states is not None:
                # keep the flagged state visible, then freeze the lane
                if every_alive:
                    states[:, k + 1] = xn[:recorded]
                else:
                    keep = alive[:recorded]
                    states[keep, k + 1] = xn[:recorded][keep]
            within = norms <= overflow_guard  # False for NaN and inf norms too
            froze = False
            if not within.all():
                bad = alive & ~within
                froze = bad.any()
                if froze:
                    first_div[bad] = k + 1
                    alive &= ~bad
                    every_alive = False
            if not every_alive:
                xn[~alive] = 0.0
                norms = np.where(alive, norms, 0.0)  # the norms of the zeroed lanes
            x = xn
            if moment_p is not None:
                npow = norms**moment_p
                mom_sum[k + 1] = npow.sum()
                mom_sq[k + 1] = (npow * npow).sum()
                alive_count[k + 1] = count if every_alive else alive.sum()
            if froze and not alive.any():
                # every lane is frozen at zero: each remaining step repeats this one
                if moment_p is not None:
                    mom_sum[k + 2:] = mom_sum[k + 1]
                    mom_sq[k + 2:] = mom_sq[k + 1]
                    alive_count[k + 2:] = 0
                break

    terminal = np.where(alive, norms, np.nan) if want_terminal else None
    return RunResult(count, steps, delta, first_div, terminal, mom_sum, mom_sq, alive_count, states)


def _kahan_accumulate(total: np.ndarray, compensation: np.ndarray, term: np.ndarray) -> None:
    y = term - compensation
    t = total + y
    compensation[:] = (t - total) - y
    total[:] = t


def run_paths(
    model: SdeModel,
    radius: float,
    x0,
    delta: float,
    steps: int,
    paths: int,
    master_seed: int,
    refinement: int = 1,
    *,
    moment_p: float | None = None,
    want_terminal: bool = False,
    record_paths: int = 0,
    overflow_guard: float = OVERFLOW_GUARD,
    workers: int = 1,
    chunk_paths: int = CHUNK_PATHS,
) -> RunResult:
    """Simulate ``paths`` independent paths and merge per-chunk reductions.

    ``moment_p`` switches on accumulation of per-step sums of |X_k|^p and
    |X_k|^(2p) over the paths still alive at k; ``want_terminal`` collects
    terminal state norms; ``record_paths`` keeps the full trajectories of
    that many leading paths (memory scales with record_paths * steps).
    Chunks run on ``workers`` threads, which draw increments concurrently
    and step one chunk at a time; the result does not depend on ``workers``.
    """
    if paths < 1:
        raise InputError(f"paths must be >= 1, got {paths}")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if not delta > 0.0:
        raise InputError(f"step size must be positive, got {delta}")
    x0_row = as_state(model, x0)

    stepping = threading.Lock()

    def run_chunk(start: int) -> RunResult:
        count = min(chunk_paths, paths - start)
        coarse = np.empty((count, steps))
        for i in range(count):
            coarse[i] = fine_increments(master_seed, start + i, delta, steps, refinement).sum(axis=1)
        with stepping:  # the other workers keep drawing meanwhile
            return step_paths(
                model, radius, x0_row, delta, coarse, moment_p=moment_p, want_terminal=want_terminal,
                record_paths=record_paths - start, overflow_guard=overflow_guard,
            )

    starts = range(0, paths, chunk_paths)
    if workers <= 1 or len(starts) == 1:
        chunks = [run_chunk(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_chunk, starts))

    first_div = np.concatenate([r.first_divergence for r in chunks])
    terminal = np.concatenate([r.terminal_norm for r in chunks]) if want_terminal else None
    recorded = [r.states for r in chunks if r.states is not None]
    states = np.concatenate(recorded, axis=0) if recorded else None

    mom_sum = mom_sq = alive = None
    if moment_p is not None:
        mom_sum = np.zeros(steps + 1)
        mom_sq = np.zeros(steps + 1)
        alive = np.zeros(steps + 1, dtype=np.int64)
        comp_sum = np.zeros(steps + 1)
        comp_sq = np.zeros(steps + 1)
        for r in chunks:  # chunk order: identical for any worker count
            _kahan_accumulate(mom_sum, comp_sum, r.moment_sum)
            _kahan_accumulate(mom_sq, comp_sq, r.moment_sqsum)
            alive += r.alive

    return RunResult(paths, steps, delta, first_div, terminal, mom_sum, mom_sq, alive, states)
