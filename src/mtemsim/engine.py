"""Multi-path simulation: one wide stepper, worker threads drawing its increments.

The paths of a run are stepped as the lanes of one array, a window of up to
``WINDOW_SEGMENTS`` segments of ``chunk_paths`` paths at a time, and time
advances in blocks of ``BLOCK_STEPS`` steps.  For each block every worker
thread draws the Brownian increments of the segments it owns, then waits at
one barrier; the last thread to arrive steps every lane through the block
as the barrier's action, before any thread is released.  So drawing and
stepping never overlap: a step is a few dozen numpy calls, each of which
gives up the GIL and takes it back, and a drawing thread that takes it in
between slows the stepping thread more than its draws save.  Memory is
bounded by the window times the block, not by the number of steps.

Moment sums are reduced per segment at every step with a fixed operation
order, and merged segment by segment in path order with compensated
summation.  Together with the per-path seed derivation in :mod:`.schemes`
this makes every output bit-identical for any worker count, block length or
window.
"""

from __future__ import annotations

import contextvars
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .models import SdeModel, as_state, state_norms
from .schemes import OVERFLOW_GUARD, advance_states, path_generator

__all__ = ["CHUNK_PATHS", "Lanes", "RunResult", "run_paths", "step_paths"]

# Fixed segment width: the unit of the moment reductions and of the work a
# drawing thread owns.  Must not depend on the worker count or reductions
# would change with it.
CHUNK_PATHS = 512

# Steps drawn and stepped per block, and segments stepped as one array.
# Neither changes an output byte; together they bound the increment buffer.
BLOCK_STEPS = 512
WINDOW_SEGMENTS = 8
# Fine normals a drawing thread scales and sums in one call: the draws of
# several paths, so that per-path numpy calls do not dominate at refinement 1.
GROUP_NORMALS = 1 << 16


@dataclass
class RunResult:
    """Output of a multi-path run."""

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

    @classmethod
    def empty(cls, paths, steps, delta, dimension, *, moments=False, want_terminal=False, record_paths=0):
        """A result for the stepper to fill: no path diverged yet, sums at zero."""
        recorded = min(record_paths, paths)
        return cls(
            paths, steps, delta, np.full(paths, -1, dtype=np.int64),
            np.full(paths, np.nan) if want_terminal else None,
            np.zeros(steps + 1) if moments else None,
            np.zeros(steps + 1) if moments else None,
            np.zeros(steps + 1, dtype=np.int64) if moments else None,
            np.zeros((recorded, steps + 1, dimension)) if recorded > 0 else None,
        )


def _kahan_accumulate(total: np.ndarray, compensation: np.ndarray, term: np.ndarray) -> None:
    y = term - compensation
    t = total + y
    compensation[:] = (t - total) - y
    total[:] = t


def _segment_sums(values: np.ndarray, segment: int, out: np.ndarray) -> None:
    """Sum each run of ``segment`` values into ``out``: row sums, then the ragged tail.

    A row sum of the reshape is bitwise the sum of that slice alone, which
    ``np.add.reduceat`` is not.
    """
    full = values.size // segment
    np.add.reduce(values[: full * segment].reshape(full, segment), axis=1, out=out[:full])
    if full < out.size:
        out[full] = np.add.reduce(values[full * segment:])


def _moment_sums(norms: np.ndarray, p: float, segment: int, sums: np.ndarray, sqsums: np.ndarray) -> None:
    """Per-segment sums of |X|^p and |X|^(2p) into ``sums`` and ``sqsums``."""
    npow = norms**p
    _segment_sums(npow, segment, sums)
    _segment_sums(npow * npow, segment, sqsums)


class Lanes:
    """Lanes ``start:start + count`` of a run, and what carries from one block to the next.

    ``out`` receives the lanes' first divergences, recorded states and
    terminal norms.  With ``moment_p`` set, the sums of |X_k|^p and
    |X_k|^(2p) over each segment of ``segment`` lanes are merged into
    ``out``'s moment sums, segment by segment in path order, with the Kahan
    ``compensation`` arrays that every window of the run shares.
    """

    def __init__(self, model: SdeModel, radius: float, x0: np.ndarray, delta: float, out: RunResult,
                 start: int = 0, count: int | None = None, *, moment_p: float | None = None,
                 segment: int = CHUNK_PATHS, overflow_guard: float = OVERFLOW_GUARD,
                 compensation: tuple[np.ndarray, np.ndarray] | None = None):
        count = out.paths - start if count is None else count
        self.model, self.radius, self.delta, self.overflow_guard = model, radius, delta, overflow_guard
        self.out, self.start, self.segment = out, start, segment
        self.moment_p = moment_p
        self.k = 0  # steps taken
        self.x = np.tile(x0, (count, 1))
        self.norms = state_norms(self.x)
        self.alive = np.ones(count, dtype=bool)
        self.every_alive = True  # until a lane freezes, no mask needs applying
        self.first_divergence = out.first_divergence[start:start + count]
        recorded = 0 if out.states is None else min(max(out.states.shape[0] - start, 0), count)
        self.states = out.states[start:start + recorded] if recorded > 0 else None
        if self.states is not None:
            self.states[:, 0] = self.x[:recorded]
        if moment_p is not None:
            self.compensation = compensation or (np.zeros(out.steps + 1), np.zeros(out.steps + 1))
            nseg = -(-count // segment)
            sums, sqsums = np.empty((1, nseg)), np.empty((1, nseg))
            _moment_sums(self.norms, moment_p, segment, sums[0], sqsums[0])
            self.merge(0, sums, sqsums, count)

    def merge(self, t0: int, sums: np.ndarray, sqsums: np.ndarray, alive) -> None:
        """Add per-segment sums (one row per step from step ``t0``) to the run's sums."""
        t1 = t0 + sums.shape[0]
        out, (comp_sum, comp_sq) = self.out, self.compensation
        for s in range(sums.shape[1]):  # segment order: the same for any window or block
            _kahan_accumulate(out.moment_sum[t0:t1], comp_sum[t0:t1], sums[:, s])
            _kahan_accumulate(out.moment_sqsum[t0:t1], comp_sq[t0:t1], sqsums[:, s])
        out.alive[t0:t1] += alive


def step_paths(lanes: Lanes, coarse: np.ndarray) -> bool:
    """Step every lane through the (count, b) coarse increments, one column per step.

    This is the package's one stepping loop, run by a single thread; its
    columns are read fastest from the transpose of a step-major array.  A lane
    is frozen at zero from the step its norm turns non-finite or exceeds the
    overflow guard; recorded states are kept up to and including that step.
    Frozen lanes are stepped on from zero until every lane is frozen.  Then
    the remaining moment sums are filled from the last step, which each
    further step would repeat, and False is returned: there is nothing left
    to step.  Terminal norms are written once the lanes stop.
    """
    model, radius, delta, guard = lanes.model, lanes.radius, lanes.delta, lanes.overflow_guard
    x, norms, alive, every_alive = lanes.x, lanes.norms, lanes.alive, lanes.every_alive
    first_div, states, moment_p, segment = lanes.first_divergence, lanes.states, lanes.moment_p, lanes.segment
    count, b = coarse.shape
    recorded = 0 if states is None else states.shape[0]
    k0 = lanes.k
    if moment_p is not None:
        nseg = -(-count // segment)
        sums, sqsums = np.empty((b, nseg)), np.empty((b, nseg))
        alive_counts = np.empty(b, dtype=np.int64)

    frozen = False
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(b):
            k = k0 + j
            xn = advance_states(model, radius, x, delta, coarse[:, j], norms)
            norms = state_norms(xn)
            if states is not None:
                # keep the flagged state visible, then freeze the lane
                if every_alive:
                    states[:, k + 1] = xn[:recorded]
                else:
                    keep = alive[:recorded]
                    states[keep, k + 1] = xn[:recorded][keep]
            within = norms <= guard  # False for NaN and inf norms too
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
                _moment_sums(norms, moment_p, segment, sums[j], sqsums[j])
                alive_counts[j] = count if every_alive else alive.sum()
            if froze and not alive.any():
                frozen = True
                break

    taken = j + 1
    lanes.x, lanes.norms, lanes.every_alive, lanes.k = x, norms, every_alive, k0 + taken
    steps = lanes.out.steps
    if moment_p is not None:
        lanes.merge(k0 + 1, sums[:taken], sqsums[:taken], alive_counts[:taken])
        rest = steps - lanes.k
        if frozen and rest > 0:  # every lane is frozen at zero: each remaining step repeats this one
            lanes.merge(lanes.k + 1, np.broadcast_to(sums[j], (rest, nseg)),
                        np.broadcast_to(sqsums[j], (rest, nseg)), 0)
    if (frozen or lanes.k == steps) and lanes.out.terminal_norm is not None:
        lanes.out.terminal_norm[lanes.start:lanes.start + count] = np.where(alive, norms, np.nan)
    return not frozen


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
    """Simulate ``paths`` independent paths and merge per-segment reductions.

    ``moment_p`` switches on accumulation of per-step sums of |X_k|^p and
    |X_k|^(2p) over the paths still alive at k; ``want_terminal`` collects
    terminal state norms; ``record_paths`` keeps the full trajectories of
    that many leading paths (memory scales with record_paths * steps).

    The run uses ``min(workers, segments per window)`` threads, each in a copy
    of the caller's context, so ``np.errstate`` holds in all of them.  For each
    block thread ``rank`` draws segments ``rank``, ``rank + jobs``, ... of the
    window from per-path generators that live as long as the window, then
    waits at a barrier; the last thread to arrive steps all lanes.  The result
    does not depend on ``workers``.  If a thread raises, the others are
    released and the first error that is not ``BrokenBarrierError`` is re-raised.
    """
    if paths < 1:
        raise InputError(f"paths must be >= 1, got {paths}")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if not delta > 0.0:
        raise InputError(f"step size must be positive, got {delta}")
    if refinement < 1 or chunk_paths < 1:
        raise InputError("refinement and chunk_paths must be >= 1")
    x0_row = as_state(model, x0)
    out = RunResult.empty(paths, steps, delta, model.dimension, moments=moment_p is not None,
                          want_terminal=want_terminal, record_paths=record_paths)
    compensation = (np.zeros(steps + 1), np.zeros(steps + 1)) if moment_p is not None else None

    width = WINDOW_SEGMENTS * chunk_paths
    block = min(steps, BLOCK_STEPS)
    jobs = max(1, min(workers, -(-min(paths, width) // chunk_paths)))
    increments = np.empty((block, min(paths, width)))  # step-major: a step reads one row
    generators = [None] * increments.shape[1]  # one per lane of the current window
    scale = math.sqrt(delta / refinement)
    group = max(1, min(chunk_paths, GROUP_NORMALS // (block * refinement)))

    def window(first: int) -> Lanes:
        return Lanes(model, radius, x0_row, delta, out, first, min(width, paths - first), moment_p=moment_p,
                     segment=chunk_paths, overflow_guard=overflow_guard, compensation=compensation)

    # the cursor: only the barrier's action moves it, while every thread waits
    start, k0, lanes = 0, 0, window(0)

    def step_block() -> None:
        """Step the drawn block through every lane of the window, then move the cursor on."""
        nonlocal start, k0, lanes
        b = min(block, steps - k0)
        more = step_paths(lanes, increments[:b, : len(lanes.x)].T)
        k0 += b
        if not more or k0 == steps:
            start, k0 = start + width, 0
            if start < paths:
                lanes = window(start)

    barrier = threading.Barrier(jobs, action=step_block)

    def draw(rank: int, fine_buf: np.ndarray, sum_buf: np.ndarray) -> None:
        """Fill the block's increments of the segments thread ``rank`` owns.

        ``group`` paths at a time: each path's fine normals come from its own
        generator, then the group is scaled, summed row by row (a row sum even
        at refinement 1, where it maps -0.0 to 0.0) and transposed into place.
        """
        count, b = min(width, paths - start), min(block, steps - k0)
        for first in range(rank * chunk_paths, count, jobs * chunk_paths):
            end = min(first + chunk_paths, count)
            for lo in range(first, end, group):
                n = min(group, end - lo)
                fine = fine_buf[: n * b * refinement].reshape(n, b, refinement)
                for i in range(lo, lo + n):
                    if k0 == 0:
                        generators[i] = path_generator(master_seed, start + i)
                    generators[i].standard_normal(out=fine[i - lo])
                fine *= scale
                summed = sum_buf[: n * b].reshape(n, b)
                np.add.reduce(fine, axis=2, out=summed)
                increments[:b, lo:lo + n] = summed.T

    def job(rank: int) -> None:
        fine_buf, sum_buf = np.empty(group * block * refinement), np.empty(group * block)
        try:
            while start < paths:
                draw(rank, fine_buf, sum_buf)
                barrier.wait()  # the last thread to arrive steps the block
        except BaseException:
            barrier.abort()  # release the other threads
            raise

    if jobs == 1:
        job(0)
        return out
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # a fresh copy per job: two threads cannot enter one context
        futures = [pool.submit(contextvars.copy_context().run, job, rank) for rank in range(jobs)]
        try:
            wait(futures)
        except BaseException:  # e.g. KeyboardInterrupt: stop the threads at their next barrier
            barrier.abort()
            raise
    errors = [e for e in (f.exception() for f in futures) if e is not None]
    if errors:
        raise next((e for e in errors if not isinstance(e, threading.BrokenBarrierError)), errors[0])
    return out
