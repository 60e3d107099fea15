"""Multi-path simulation: one wide stepper, drawer processes filling its increments ahead.

The paths of a run are stepped as the lanes of one array, a window of up to
``WINDOW_SEGMENTS`` segments of ``CHUNK_PATHS`` paths at a time, and time
advances in blocks of ``BLOCK_STEPS`` steps.  A path may have a lane per
truncation radius, MTEM beside plain EM say, all reading its increments,
drawn once.  With two workers or more, the run's own drawer processes draw
block k + 1 into one half of a shared buffer while this process steps every
lane through block k in the other; without them the caller draws and steps
each block.  No thread draws during a step: a step is many numpy calls that
each give up the GIL, and a drawing thread that takes it in between slows
the step more than its draws save.  Memory is bounded by window and block.

Moment sums are reduced per segment at every step with a fixed operation
order, and merged segment by segment in path order with compensated
summation.  With the per-path seeds of :mod:`.schemes`, the layer whose kernel
this module runs, every output is bit-identical for any worker count, block
length or window.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import mmap
import os
import pickle
import signal
import struct
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DrawerError, InputError
from .models import (SdeModel, _check_count, _check_moment_order, _check_seed, _check_size, _check_step, as_state,
                     state_norms)
from .schemes import BrownianPath, TrajectoryRecord, advance_states, path_generator, scheme_radius
from .truncation import UNTRUNCATED, resolve_radius

__all__ = ["CHUNK_PATHS", "OVERFLOW_GUARD", "Lanes", "RunResult", "run_paths", "simulate_path", "step_paths"]

# Trajectories are flagged as diverged, not aborted, beyond this magnitude;
# the explicit EM baseline is expected to blow up on superlinear models.
OVERFLOW_GUARD = 1e10

# Fixed segment width: the unit the moment sums are reduced over.  Must not
# depend on the worker count or the reductions would change with it.
CHUNK_PATHS = 512

# Steps drawn and stepped per block, and segments stepped as one array.  Neither
# changes an output byte; together they bound the two halves of the increment buffer.
BLOCK_STEPS = 256
WINDOW_SEGMENTS = 8
# Fine normals a drawer scales and sums in one call: the draws of
# several paths, so that per-path numpy calls do not dominate at refinement 1.
GROUP_NORMALS = 1 << 16


@dataclass
class RunResult:
    """Output of a multi-path run."""

    paths: int
    steps: int
    delta: float
    first_divergence: np.ndarray  # (paths,), -1 where the path never diverged
    terminal_norm: np.ndarray  # (paths,), nan for diverged paths
    moment_sum: np.ndarray | None  # (steps + 1,)
    moment_sqsum: np.ndarray | None
    alive: np.ndarray | None  # (steps + 1,) int
    states: np.ndarray | None  # (recorded paths, steps + 1, d)

    @property
    def diverged_paths(self) -> int:
        return int(np.count_nonzero(self.first_divergence >= 0))

    def split(self, parts: int) -> list["RunResult"]:
        """The results of a run over ``parts`` radii, one per radius, as views of this one."""
        pieces = [[None] * parts if a is None else np.split(a, parts)
                  for a in (self.first_divergence, self.terminal_norm, self.states)]
        return [RunResult(self.paths // parts, self.steps, self.delta, first, terminal, self.moment_sum,
                          self.moment_sqsum, self.alive, states) for first, terminal, states in zip(*pieces)]

    @classmethod
    def empty(cls, paths, steps, delta, dimension, *, moments=False, record_paths=0):
        """A result for the stepper to fill: no path diverged yet, sums at zero."""
        recorded = min(record_paths, paths)
        return cls(
            paths, steps, delta, np.full(paths, -1, dtype=np.int64), np.full(paths, np.nan),
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
    """Paths ``start:start + count`` under each radius, and what carries from one block to the next.

    ``radius`` is one radius or several; lane ``s * count + i`` is path
    ``start + i`` under the ``s``-th, and ``out``, radius-major too, receives
    the lanes' first divergences, recorded states and terminal norms.  With
    ``moment_p`` set, which needs one radius, the sums of |X_k|^p and
    |X_k|^(2p) over each segment of ``CHUNK_PATHS`` lanes are merged into
    ``out``'s moment sums, segment by segment in path order, with the Kahan
    ``compensation`` arrays that every window of the run shares.  ``alive``
    flags the lanes not yet frozen; ``dead``, their complement as indices, and
    ``live``, their count, change only on a step where a lane freezes.  A lane
    freezes once its norm exceeds ``OVERFLOW_GUARD``, read here.
    """

    def __init__(self, model: SdeModel, radius, x0: np.ndarray, delta: float, out: RunResult,
                 start: int, count: int, *, moment_p: float | None = None,
                 compensation: tuple[np.ndarray, np.ndarray] | None = None):
        radii = np.minimum(np.ravel(radius), UNTRUNCATED)
        copies, paths = radii.size, out.paths // radii.size
        self.model, self.delta, self.overflow_guard = model, delta, OVERFLOW_GUARD
        self.radius = np.repeat(radii, count)  # one per lane: a single kernel serves one radius or several
        self.out, self.start, self.count, self.copies, self.segment = out, start, count, copies, CHUNK_PATHS
        self.moment_p = moment_p
        self.k = 0  # steps taken
        self.x = np.tile(x0, (copies * count, 1))
        self.norms = state_norms(self.x)
        self.alive = np.ones(copies * count, dtype=bool)
        self.dead, self.live = np.flatnonzero(~self.alive), copies * count
        self.first_divergence = out.first_divergence.reshape(copies, paths)[:, start:start + count]
        recorded = 0 if out.states is None else min(max(out.states.shape[0] // copies - start, 0), count)
        self.states = None  # (copies, recorded, steps + 1, d)
        if recorded > 0:
            self.states = out.states.reshape(copies, -1, *out.states.shape[1:])[:, start:start + recorded]
            self.states[:, :, 0] = x0
        if moment_p is not None:
            self.compensation = compensation
            nseg = -(-count // self.segment)
            sums, sqsums = np.empty((1, nseg)), np.empty((1, nseg))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # |x0|^(2p) may overflow: nan stderr
                _moment_sums(self.norms, moment_p, self.segment, sums[0], sqsums[0])
                self.merge(0, sums, sqsums, count)

    def merge(self, t0: int, sums: np.ndarray, sqsums: np.ndarray, alive) -> None:
        """Add per-segment sums (one row per step from step ``t0``) to the run's sums."""
        t1 = t0 + sums.shape[0]
        out, (comp_sum, comp_sq) = self.out, self.compensation
        for s in range(sums.shape[1]):  # segment order: the same for any window or block
            _kahan_accumulate(out.moment_sum[t0:t1], comp_sum[t0:t1], sums[:, s])
            _kahan_accumulate(out.moment_sqsum[t0:t1], comp_sq[t0:t1], sqsums[:, s])
        out.alive[t0:t1] += alive


def step_paths(lanes: Lanes, coarse: np.ndarray) -> None:
    """Step every lane through the (count, b) coarse increments of its path, one column per step.

    This is the package's one stepping loop, run by a single thread; its
    columns are read fastest from the transpose of a step-major array.  Every
    copy of a path, one per radius, reads the path's column.  A lane
    is frozen at zero from the step its norm turns non-finite or exceeds the
    overflow guard; recorded states are kept up to and including that step,
    and read +0.0 after it.  The bookkeeping of a freeze runs on the step a
    lane freezes only: on every other step the frozen lanes are zeroed by
    index and the guard is tested against the largest norm.  Frozen lanes
    are stepped on from zero to the horizon, every lane of a block through
    all its columns, and the block's moment sums are merged once.  Terminal
    norms are written at the horizon.
    """
    model, radius, delta, guard = lanes.model, lanes.radius, lanes.delta, lanes.overflow_guard
    x, norms, alive, dead, live = lanes.x, lanes.norms, lanes.alive, lanes.dead, lanes.live
    first_div, states, moment_p, segment = lanes.first_divergence, lanes.states, lanes.moment_p, lanes.segment
    count, b = coarse.shape
    copies = lanes.copies  # lanes per path, one per radius
    recorded = 0 if states is None else states.shape[1]
    k0 = lanes.k
    if copies > 1:
        copied = np.empty((copies, count))  # each radius's copy of the step's column
        db = copied.reshape(-1)
    if moment_p is not None:
        nseg = -(-count // segment)
        sums, sqsums = np.empty((b, nseg)), np.empty((b, nseg))
        alive_counts = np.empty(b, dtype=np.int64)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(b):
            k = k0 + j
            if copies == 1:
                db = coarse[:, j]
            else:
                copied[:] = coarse[:, j]
            xn = advance_states(model, radius, x, delta, db, norms)
            xn[dead] = 0.0
            norms = state_norms(xn)
            if states is not None:  # a frozen lane writes the +0.0 its state already holds
                states[:, :, k + 1] = xn.reshape(copies, count, -1)[:, :recorded]
            if not norms.max() <= guard:  # False for a NaN norm too: a lane froze, its flagged state recorded
                bad = np.flatnonzero(~(norms <= guard))  # a frozen lane's norm is 0
                first_div[np.divmod(bad, count)] = k + 1
                alive[bad] = False
                dead = np.flatnonzero(~alive)
                live = alive.size - dead.size
                xn[bad] = 0.0
                norms[bad] = 0.0
            x = xn
            if moment_p is not None:
                _moment_sums(norms, moment_p, segment, sums[j], sqsums[j])
                alive_counts[j] = live

    lanes.x, lanes.norms, lanes.dead, lanes.live, lanes.k = x, norms, dead, live, k0 + b
    if moment_p is not None:
        lanes.merge(k0 + 1, sums, sqsums, alive_counts)
    if lanes.k == lanes.out.steps:
        terminal = lanes.out.terminal_norm.reshape(copies, -1)[:, lanes.start:lanes.start + count]
        terminal[:] = np.where(alive, norms, np.nan).reshape(copies, count)


def simulate_path(
    model: SdeModel,
    policy_or_radius,
    scheme: str,
    x0,
    delta: float,
    steps: int,
    path: BrownianPath,
) -> TrajectoryRecord:
    """Advance one path for ``steps`` coarse steps of size ``delta``.

    The record stops, with the divergence flag set, at the first state whose
    magnitude exceeds ``OVERFLOW_GUARD`` or that has a non-finite coordinate.
    """
    steps = _check_count("steps", steps)
    if path.delta != delta:
        raise InputError(f"path was generated with delta = {path.delta}, not {delta}")
    if path.steps < steps:
        raise InputError(f"path holds {path.steps} steps, {steps} requested")
    radius = scheme_radius(policy_or_radius, scheme, delta)
    run = RunResult.empty(1, steps, delta, model.dimension, record_paths=1)
    step_paths(Lanes(model, radius, as_state(model, x0, "x0"), delta, run, 0, 1), path.coarse()[None, :steps])
    first = int(run.first_divergence[0])
    states = run.states[0] if first < 0 else run.states[0, : first + 1]
    return TrajectoryRecord(scheme, states[0].copy(), delta, states, first >= 0, first if first >= 0 else None)


class _Drawers:
    """The drawer processes of one run, each running ``draw(rank, start, k0, half)`` on the blocks it is sent.

    A drawer keeps no descriptor open but 0-2 and its own two pipe ends: it hides no other drawer's end of file.
    Closing ends them: each reads end of file and exits, and one still drawing a second later is killed.
    """

    pids = commands = replies = ()  # the drawers and this process's ends of their pipes: none until started

    def start(self, jobs: int, draw) -> int:
        """Fork ``jobs`` drawers and give their count, or 1 for none: one job, no ``os.fork``, or a refused fork."""
        self.pids, self.commands, self.replies = [], [], []
        try:
            for rank in range(jobs if jobs > 1 and hasattr(os, "fork") else 0):
                command_r, command_w = os.pipe()
                self.commands.append(open(command_w, "wb", buffering=0))
                with open(command_r, "rb") as requests:  # the drawer's ends: this process closes them once forked
                    reply_r, reply_w = os.pipe()
                    self.replies.append(open(reply_r, "rb"))
                    with open(reply_w, "wb") as answers:
                        if (pid := os.fork()) == 0:
                            try:
                                self._serve(draw, rank, requests, answers)
                            finally:
                                os._exit(0)  # no atexit handler, no second flush of inherited buffers
                        self.pids.append(pid)
        except OSError:  # a refused pipe or fork, out of processes or descriptors say: the caller draws instead
            self.close()
        return len(self.pids) or 1

    def _serve(self, draw, rank: int, requests, answers) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's, which ends its drawers
        low, high = sorted((requests.fileno(), answers.fileno()))
        for first, end in ((3, low), (low + 1, high), (high + 1, os.sysconf("SC_OPEN_MAX"))):
            os.closerange(first, end)
        while len(command := requests.read(24)) == 24:
            try:
                draw(rank, *struct.unpack("3q", command))
                answer = pickle.dumps(None)
            except BaseException as exc:  # noqa: BLE001 - handed to the parent
                try:
                    pickle.loads(answer := pickle.dumps(exc))
                except Exception:  # noqa: BLE001 - it does not round-trip: send its traceback
                    answer = pickle.dumps(RuntimeError("".join(traceback.format_exception(exc))))
            answers.write(answer)
            answers.flush()

    def send(self, start: int, k0: int, half: int) -> None:
        for pipe in self.commands:
            pipe.write(struct.pack("3q", start, k0, half))

    def collect(self, rank: int) -> None:
        """Wait for drawer ``rank``'s reply; re-raise its error, or raise DrawerError if it died without one."""
        if not self.replies[rank].peek(1):  # blocks, GIL released, until the share is drawn or the drawer died
            how, pid = "exit status unknown", self.pids[rank]
            with contextlib.suppress(ChildProcessError):  # reaped already, as where SIGCHLD is ignored
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])  # -n: killed by signal n
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise DrawerError(f"drawer {rank} (pid {pid}) ended without replying, {how}")
        if error := pickle.load(self.replies[rank]):
            raise error

    def close(self) -> None:
        for pipe in self.commands + self.replies:
            pipe.close()
        deadline = time.monotonic() + 1.0
        for pid in self.pids:
            with contextlib.suppress(ChildProcessError):  # reaped already, as where SIGCHLD is ignored
                while not os.waitpid(pid, os.WNOHANG)[0]:
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                    time.sleep(1e-3)
        self.pids = self.commands = self.replies = ()


def run_paths(
    model: SdeModel,
    radius,
    x0,
    delta: float,
    steps: int,
    paths: int,
    master_seed: int,
    refinement: int = 1,
    *,
    moment_p: float | None = None,
    record_paths: int = 0,
    workers: int = 1,
) -> RunResult:
    """Simulate ``paths`` independent paths and merge per-segment reductions.

    ``moment_p`` switches on accumulation of per-step sums of |X_k|^p and
    |X_k|^(2p) over the paths still alive at k; ``record_paths`` keeps the
    full trajectories of that many leading paths (memory scales with
    record_paths * steps).  Terminal state norms are always kept.  Segments
    hold ``CHUNK_PATHS`` paths, and a lane freezes beyond ``OVERFLOW_GUARD``.

    ``radius`` is one truncation radius > 0 (+inf for none) or several, in a
    tuple, list or one-dimensional array, which step each path as lanes of
    one run, sharing its increments, drawn once.  The result then holds
    ``len(radius) * paths`` lanes, radius-major, and ``split`` gives one
    result per radius, byte for byte equal to a run under that radius alone.
    Moment sums need a single radius.

    The run is a fixed schedule of blocks, window after window, and every
    block steps all the lanes of its window, frozen ones included: a run's
    cost depends on its size only.  ``jobs = min(workers, segments per
    window)`` drawer processes each draw a contiguous share of each window's
    paths, equal to within a path, while ``jobs`` threads in copies of the
    caller's context wait on them, then at a barrier whose action sends out
    block n + 1 and steps block n.  With one job, without ``os.fork`` or where
    a fork is refused, the caller draws each block, then steps it, to the same
    bytes.  A drawer's error is re-raised as its own type, or as a
    RuntimeError with its traceback; one that dies without replying raises
    DrawerError.  Every drawer is reaped before the call returns or raises.  A
    bad count, ``workers`` among them, seed, step size or radius, a moment
    order outside (0, 1), or moment sums over fewer than 2 paths raise
    InputError, and a size numpy cannot index MemoryError, before allocating.
    """
    moment_p = None if moment_p is None else _check_moment_order("moment_p", moment_p)
    paths, steps = _check_count("paths", paths, 1 if moment_p is None else 2), _check_count("steps", steps)
    refinement, record_paths = _check_count("refinement", refinement), _check_count("record_paths", record_paths, 0)
    master_seed, delta = _check_seed("master_seed", master_seed), _check_step("delta", delta)
    workers = _check_count("workers", workers)
    radii = list(radius) if isinstance(radius, (tuple, list)) or np.ndim(radius) > 0 else [radius]
    if (copies := len(radii)) != 1 and (copies == 0 or moment_p is not None):
        raise InputError("give a radius, and a single one for moment sums")
    radius = np.array([resolve_radius(r) for r in radii])  # each one positive, +inf for none; no nested one
    x0_row, chunk = as_state(model, x0, "x0"), CHUNK_PATHS
    width, block = WINDOW_SEGMENTS * chunk, min(steps, BLOCK_STEPS)
    jobs = min(workers, -(-min(paths, width) // chunk))
    shape = (1 + (jobs > 1), block, min(paths, width))  # halves; a step reads one row
    group = max(1, GROUP_NORMALS // (block * refinement))
    recorded = copies * min(record_paths, paths)
    _check_size(copies * paths, steps + 1 if moment_p is not None else 0, recorded * (steps + 1) * model.dimension,
                math.prod(shape), group * block * refinement)
    out = RunResult.empty(copies * paths, steps, delta, model.dimension, moments=moment_p is not None,
                          record_paths=recorded)
    compensation = (np.zeros(steps + 1), np.zeros(steps + 1)) if moment_p is not None else None
    halves = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)  # shared with drawers
    normals = [None] * shape[2]  # each lane's stream, as its bound standard_normal, for the current window
    scale = math.sqrt(delta / refinement)
    scratch = np.empty(group * block * refinement), np.empty(group * block)  # one thread per process draws

    per_window = -(-steps // block)  # blocks run window after window
    blocks, n, lanes = -(-paths // width) * per_window, 0, None  # only step_block moves n, the block to step next

    def block_of(n: int) -> tuple[int, int, int]:
        """The window start, first step and buffer half of block ``n``."""
        return n // per_window * width, n % per_window * block, n % halves.shape[0]

    def step_block() -> None:
        """Step block n, drawn, through every lane of its window; the drawers fill block n + 1 meanwhile."""
        nonlocal n, lanes
        start, k0, half = block_of(n)
        if n + 1 < blocks:
            drawers.send(*block_of(n + 1))
        if k0 == 0:  # a window's first block: its lanes start from x0
            lanes = Lanes(model, radius, x0_row, delta, out, start, min(width, paths - start), moment_p=moment_p,
                          compensation=compensation)
        step_paths(lanes, halves[half, : steps - k0, : lanes.count].T)
        n += 1

    def draw(rank: int, start: int, k0: int, half: int) -> None:
        """Draw paths ``count * rank // jobs`` to ``count * (rank + 1) // jobs`` of window ``start`` from step ``k0``.

        Their streams open at the window's first block.  ``group`` paths at a time, each path's fine normals come
        from its own stream; the group is scaled, summed row by row (a row sum even at refinement 1, where it maps
        -0.0 to 0.0) and transposed into ``half``.
        """
        (fine_buf, sum_buf), count, b = scratch, min(width, paths - start), min(block, steps - k0)
        first, end = count * rank // jobs, count * (rank + 1) // jobs
        if k0 == 0:
            normals[first:end] = [path_generator(master_seed, start + i).standard_normal for i in range(first, end)]
        for lo in range(first, end, group):
            n = min(group, end - lo)
            fine = fine_buf[: n * b * refinement].reshape(n, b, refinement)
            for normal, row in zip(normals[lo:lo + n], fine):
                normal(out=row)
            fine *= scale
            summed = sum_buf[: n * b].reshape(n, b)
            np.add.reduce(fine, axis=2, out=summed)
            halves[half, :b, lo:lo + n] = summed.T

    def job(rank: int) -> None:
        try:
            while n < blocks:
                drawers.collect(rank)
                barrier.wait()  # the last thread to arrive steps the block
        except BaseException:
            barrier.abort()  # release the other threads
            raise

    with contextlib.closing(_Drawers()) as drawers:
        if (jobs := drawers.start(jobs, draw)) == 1:  # no drawer: this thread draws each block, then steps it
            while n < blocks:
                draw(0, *block_of(n))
                step_block()
            return out
        barrier = threading.Barrier(jobs, action=step_block)
        drawers.send(*block_of(0))
        with ThreadPoolExecutor(max_workers=jobs) as pool:  # a fresh context copy per job: two threads cannot enter one
            futures = [pool.submit(contextvars.copy_context().run, job, rank) for rank in range(jobs)]
            try:
                wait(futures)
            except BaseException:  # e.g. KeyboardInterrupt: stop the threads at their next barrier
                barrier.abort()
                raise
    if errors := [e for e in (f.exception() for f in futures) if e is not None]:
        raise next((e for e in errors if not isinstance(e, threading.BrokenBarrierError)), errors[0])
    return out
