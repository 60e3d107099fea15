"""Engine runs in which every path diverges, the engine's drawers and threads, and its layout.

Every block of every window is stepped, frozen lanes included, whether or
not a lane is left alive.  The digest below pins the arrays of runs in which
every path diverges to those of an engine that stepped frozen lanes to the
horizon; it is checked only on the numpy version it was captured on.

From two workers on, forked drawer processes draw each block's increments
while a thread of the caller's process steps every lane; no drawer outlives
its run, and one that dies without replying is a ``DrawerError``.  A run
beside another in a second thread ends on its own.  Without ``os.fork``, or
where a pipe or fork is refused, the calling thread draws, to the same bytes.
Neither the worker count, the block length nor the window changes an output
byte, and memory does not grow with the number of steps.
A run over several radii splits back into the runs under each radius alone.
"""

import contextlib
import errno
import hashlib
import mmap
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import mtemsim as m
from mtemsim import engine
from mtemsim.engine import run_paths
from mtemsim.cli import main
from mtemsim.errors import DrawerError, InputError
from mtemsim.models import SdeModel
from mtemsim.truncation import default_policy

CAPTURED_ON_NUMPY = "2.4.6"

# (x0, moment order, overflow guard): at x0 = 1000 and x0 = 50 every em path
# diverges, at x0 = 3 only some do.
CONFIGS = [(1000.0, 0.5, 1e10), (1000.0, 0.75, 1e10), (50.0, 0.125, 1e4), (3.0, 0.25, 1e10)]
LAYOUTS = [(4, 512), (40, 16), (600, 512)]  # (paths, CHUNK_PATHS)
DIGEST = "0282764c99e0fc84a99a564afd4b10a01d22c8daeeda20e094976c89371f9afa"


@pytest.mark.skipif(np.__version__ != CAPTURED_ON_NUMPY,
                    reason=f"digest was captured on numpy {CAPTURED_ON_NUMPY}")
def test_fully_diverged_chunks_keep_their_bytes(monkeypatch):
    ex41 = m.example41()
    digest = hashlib.sha256()
    all_diverged = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x0, p, guard in CONFIGS:
            for paths, chunk in LAYOUTS:
                monkeypatch.setattr(engine, "OVERFLOW_GUARD", guard)
                monkeypatch.setattr(engine, "CHUNK_PATHS", chunk)
                r = run_paths(ex41, np.inf, x0, 5e-3, 300, paths, 9, 1, moment_p=p, record_paths=paths)
                all_diverged += r.diverged_paths == paths
                for a in (r.first_divergence, r.terminal_norm, r.moment_sum,
                          r.moment_sqsum, r.alive, r.states):
                    digest.update(np.ascontiguousarray(a).tobytes())
    assert all_diverged == 8
    assert digest.hexdigest() == DIGEST


def test_fully_diverged_run_ends_with_zero_moments(monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_PATHS", 16)
    r = run_paths(m.example41(), np.inf, 1000.0, 5e-3, 300, 40, 9, 1, moment_p=0.5)
    last = int(r.first_divergence.max())
    assert r.diverged_paths == 40 and last < 300
    assert np.all(r.alive[last:] == 0)
    assert np.all(r.moment_sum[last:] == 0.0) and np.all(r.moment_sqsum[last:] == 0.0)
    assert np.all(np.isnan(r.terminal_norm))


class _InFlight:
    """A drift that records how many of its calls were ever in progress at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def __call__(self, x):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(1e-5)  # let another thread run if one could
            return -x - x**3
        finally:
            with self.lock:
                self.active -= 1


def test_chunks_step_one_at_a_time_with_the_same_bytes(monkeypatch):
    probe = _InFlight()
    model = SdeModel("probe", 1, probe, lambda x: 0.5 * x, lambda r: 1.0 + 3.0 * r * r)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    runs = [run_paths(model, 1.5, 2.0, 1e-2, 40, 48, 5, 2, moment_p=0.5, record_paths=48, workers=workers)
            for workers in (1, 4)]
    assert probe.peak == 1
    single, pooled = runs
    for name in ("first_divergence", "terminal_norm", "moment_sum", "moment_sqsum", "alive", "states"):
        assert getattr(pooled, name).tobytes() == getattr(single, name).tobytes()


def _arrays(r):
    return [getattr(r, name) for name in ("first_divergence", "terminal_norm", "moment_sum",
                                          "moment_sqsum", "alive", "states")]


@pytest.mark.skipif(np.__version__ != CAPTURED_ON_NUMPY,
                    reason=f"digest was captured on numpy {CAPTURED_ON_NUMPY}")
def test_fully_diverged_runs_keep_their_bytes_on_two_workers(monkeypatch):
    # every lane freezes early here, and the stepping thread still steps each block the drawers fill
    ex41 = m.example41()
    digest = hashlib.sha256()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x0, p, guard in CONFIGS:
            for paths, chunk in LAYOUTS:
                monkeypatch.setattr(engine, "OVERFLOW_GUARD", guard)
                monkeypatch.setattr(engine, "CHUNK_PATHS", chunk)
                r = run_paths(ex41, np.inf, x0, 5e-3, 300, paths, 9, 1, moment_p=p, record_paths=paths,
                              workers=2)
                for a in _arrays(r):
                    digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == DIGEST


class _Boom(RuntimeError):
    pass


class _FailsOnCall:
    """A drift that raises on its ``n``-th call."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls == self.n:
            raise _Boom(f"drift call {self.n}")
        return -x - x**3


def _error_within(seconds, fn):
    """The exception ``fn`` raised, asserting that it returned within ``seconds``."""
    box = {}

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "run_paths did not return"
    return box.get("error")


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("failing_call", [30, 700])  # in the first block, in a later one
def test_a_step_that_raises_reaches_the_caller_and_ends_every_thread(workers, failing_call, monkeypatch):
    baseline = threading.active_count()
    model = SdeModel("boom", 1, _FailsOnCall(failing_call), lambda x: 0.5 * x, lambda r: 1.0 + 3.0 * r * r)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    error = _error_within(20, lambda: run_paths(model, 1.5, 2.0, 1e-2, 2000, 48, 5, 1, moment_p=0.5,
                                                workers=workers))
    assert isinstance(error, _Boom)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [2, 4])
def test_a_draw_that_raises_reaches_the_caller_and_ends_every_thread(workers, monkeypatch):
    baseline = threading.active_count()
    path_generator = engine.path_generator

    def failing(master_seed, path_index):
        if path_index == 21:
            raise _Boom("no generator for path 21")
        return path_generator(master_seed, path_index)

    monkeypatch.setattr(engine, "path_generator", failing)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    error = _error_within(20, lambda: run_paths(m.example41(), 1.5, 2.0, 1e-2, 2000, 48, 5, 1, workers=workers))
    assert isinstance(error, _Boom)
    assert threading.active_count() == baseline


def test_many_threads_switching_often_keep_the_bytes(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter
    # allows, six threads meeting at the barrier at each of 1,000 block
    # starts: a segment drawn twice or never would change the bytes, a lost
    # wake-up would hang the run
    monkeypatch.setattr(engine, "BLOCK_STEPS", 2)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)

    def run(workers):
        return run_paths(m.example41(), 1.5, 2.0, 1e-2, 400, 300, 17, 2, moment_p=0.5, record_paths=9,
                         workers=workers)

    expected = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        box = {}
        assert _error_within(60, lambda: box.setdefault("run", run(6))) is None
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(_arrays(box["run"]), _arrays(expected)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("paths", [1000, 600])
@pytest.mark.parametrize("refinement", [1, 3])
def test_block_window_and_draw_group_change_no_byte(paths, refinement, monkeypatch):
    # em from x0 = 3 loses some paths, from x0 = 1000 every path of every window
    ex41 = m.example41()
    runs = [(1.5, 2.0), (np.inf, 3.0), (np.inf, 1000.0)]
    # mtem and em as lanes of one run; at x0 = 1e200 both lose every path at once
    stacked = [3.0, 1000.0, 1e200]
    monkeypatch.setattr(engine, "CHUNK_PATHS", 128)

    def run(radius, x0, workers):
        single = np.ndim(radius) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            return run_paths(ex41, radius, x0, 5e-3, 60, paths, 13, refinement,
                             moment_p=0.5 if single else None, record_paths=paths // 2 + 3, workers=workers)

    expected = [run(radius, x0, 1) for radius, x0 in runs]
    assert expected[1].diverged_paths not in (0, paths) and expected[2].diverged_paths == paths
    alone = {x0: [run(radius, x0, 1) for radius in (1.5, np.inf)] for x0 in stacked}
    monkeypatch.setattr(engine, "BLOCK_STEPS", 7)  # 60 steps: 8 blocks and a ragged one
    monkeypatch.setattr(engine, "WINDOW_SEGMENTS", 2)  # several windows, the last one ragged
    monkeypatch.setattr(engine, "GROUP_NORMALS", 50)  # draws summed 7 or 2 paths at a time
    for workers in (1, 2, 3):
        for (radius, x0), reference in zip(runs, expected):
            for got, want in zip(_arrays(run(radius, x0, workers)), _arrays(reference)):
                assert got.tobytes() == want.tobytes()
        for x0, references in alone.items():
            both = run((1.5, np.inf), x0, workers)
            assert both.paths == 2 * paths and both.moment_sum is None
            for part, reference in zip(both.split(2), references):
                for name in ("first_divergence", "terminal_norm", "states"):
                    assert getattr(part, name).tobytes() == getattr(reference, name).tobytes()


def test_several_radii_refuse_moment_sums():
    with pytest.raises(InputError, match="a single one for moment sums"):
        run_paths(m.example41(), (1.5, np.inf), 2.0, 5e-3, 10, 4, 1, moment_p=0.5)


@pytest.mark.parametrize("radius", [-1.0, np.nan, 0.0, (1.5, -2.0), (1.5, np.nan)],
                         ids=["negative", "nan", "zero", "lane-negative", "lane-nan"])
def test_a_radius_that_is_not_positive_is_refused_before_any_drawer_starts(radius, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_PATHS", 2)
    with pytest.raises(InputError, match="radius: must be a positive real number or inf"):
        run_paths(m.example41(), radius, 2.0, 5e-4, 20, 4, 1, workers=2)
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_memory_is_bounded_by_window_and_block_not_by_steps(workers):
    ex41 = m.example41()
    radius = default_policy(ex41).radius(5e-4)
    tracemalloc.start()
    try:
        run_paths(ex41, radius, 2.0, 5e-4, 10_000, 1024, 1, 1, moment_p=0.5, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (paths, steps) increments alone would take 78 MiB
    assert peak < 16 * 2**20


@pytest.mark.parametrize("workers", [2, 4])
def test_no_draw_runs_while_a_block_is_stepped(workers, monkeypatch):
    # checks the draws of this process: a drawer process has its own copy of ``stepping``
    stepping = threading.Event()
    step_paths, path_generator = engine.step_paths, engine.path_generator

    def slow_step(lanes, coarse):
        stepping.set()
        try:
            time.sleep(1e-4)  # let a drawing thread run if one could
            return step_paths(lanes, coarse)
        finally:
            stepping.clear()

    class Checked:
        def __init__(self, generator):
            self.generator = generator

        def standard_normal(self, **kwargs):
            assert not stepping.is_set(), "a draw ran while a block was being stepped"
            return self.generator.standard_normal(**kwargs)

    monkeypatch.setattr(engine, "BLOCK_STEPS", 5)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    monkeypatch.setattr(engine, "step_paths", slow_step)
    monkeypatch.setattr(engine, "path_generator", lambda seed, i: Checked(path_generator(seed, i)))
    box = {}
    assert _error_within(20, lambda: box.setdefault("run", run_paths(
        m.example41(), 1.5, 2.0, 1e-2, 40, 64, 3, 2, moment_p=0.5, workers=workers))) is None
    assert box["run"].alive[-1] == 64  # 8 blocks stepped over 8 segments, every draw checked


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("refinement", [3, 16])
def test_a_single_path_equals_its_lane_at_every_refinement(refinement, workers):
    # 1,100 steps: four full blocks and a ragged one; paths on both sides of a segment edge
    ex41 = m.example41()
    delta, steps, paths = 5e-4, 1100, 530
    radius = default_policy(ex41).radius(delta)
    batch = run_paths(ex41, radius, 2.0, delta, steps, paths, 31, refinement, record_paths=paths,
                      workers=workers)
    for i in (0, 511, 512, 529):
        path = m.BrownianPath.generate(31, i, delta, steps, refinement=refinement)
        rec = m.simulate_path(ex41, radius, "mtem", 2.0, delta, steps, path)
        assert rec.states.tobytes() == batch.states[i].tobytes()


# (model, x0, overflow guard): at delta = 0.02 em loses 15 of 24 paths in both, at steps 5 to 20 and 7 to 27;
# f(0) = 1 leaves zero, so a frozen lane stays at zero only if each step zeroes it
FREEZES = {"example41": (m.example41(), 3.0, 1e10),
           "drift_one_at_zero": (SdeModel("shifted", 1, lambda x: 1.0 - x, lambda x: 0.0 * x + 3.0,
                                          lambda r: 1.0), 0.0, 2.0)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", FREEZES)
def test_lanes_that_freeze_at_different_steps_each_step_as_their_path_alone(case, workers, monkeypatch):
    model, x0, guard = FREEZES[case]
    delta, steps, paths, seed, radii = 0.02, 30, 24, 7, (2.0, np.inf)
    monkeypatch.setattr(engine, "BLOCK_STEPS", 3)  # freezes on and off block edges
    monkeypatch.setattr(engine, "WINDOW_SEGMENTS", 2)  # windows of 8 paths: 3 of them
    monkeypatch.setattr(engine, "CHUNK_PATHS", 4)
    monkeypatch.setattr(engine, "OVERFLOW_GUARD", guard)  # simulate_path's lanes read it too
    both = run_paths(model, radii, x0, delta, steps, paths, seed, 1, record_paths=paths, workers=workers)
    em_first = both.split(2)[1].first_divergence
    assert np.unique(em_first[em_first >= 0]).size >= 5 and np.count_nonzero(em_first < 0) >= 2
    for lane in range(both.paths):
        radius, i = radii[lane // paths], lane % paths
        rec = m.simulate_path(model, radius, "mtem" if radius < np.inf else "em", x0, delta, steps,
                              m.BrownianPath.generate(seed, i, delta, steps, refinement=1))
        first = int(both.first_divergence[lane])
        assert first == (-1 if rec.first_divergence_step is None else rec.first_divergence_step)
        assert rec.states.tobytes() == both.states[lane, :rec.states.shape[0]].tobytes()
        frozen = both.states[lane, rec.states.shape[0]:]
        assert np.all(frozen == 0.0) and not np.signbit(frozen).any()
        assert np.isnan(both.terminal_norm[lane]) == (first >= 0)
    em = run_paths(model, np.inf, x0, delta, steps, paths, seed, 1, moment_p=0.5, workers=workers)
    assert em.first_divergence.tobytes() == em_first.tobytes()
    living = [np.count_nonzero((em_first < 0) | (em_first > k)) for k in range(steps + 1)]
    assert em.alive.tolist() == living


def test_the_callers_errstate_holds_on_every_worker_thread(monkeypatch):
    # every em path from x0 = 50 diverges, and the drift's 1 / x divides by zero on each lane frozen at zero
    monkeypatch.setattr(engine, "OVERFLOW_GUARD", 1e4)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 16)
    ex41 = m.example41()
    model = SdeModel("over-x", 1, lambda x: ex41.drift(x) + 1.0 / x, ex41.diffusion, ex41.lipschitz_bound)

    def run(workers):
        return run_paths(model, np.inf, 50.0, 5e-3, 300, 40, 9, 1, moment_p=0.5, record_paths=40, workers=workers)

    with warnings.catch_warnings(), np.errstate(divide="ignore"):
        warnings.simplefilter("error")
        single, pooled = run(1), run(2)
    assert single.diverged_paths == 40
    for got, want in zip(_arrays(pooled), _arrays(single)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_draws_run_in_drawer_processes_from_two_workers_on(workers, monkeypatch):
    parent, seen = os.getpid(), mmap.mmap(-1, 2)  # shared: [a draw in this process, a draw in another]
    path_generator = engine.path_generator

    class Recorded:
        def __init__(self, generator):
            self.generator = generator

        def standard_normal(self, **kwargs):
            seen[os.getpid() != parent] = 1
            return self.generator.standard_normal(**kwargs)

    monkeypatch.setattr(engine, "path_generator", lambda seed, i: Recorded(path_generator(seed, i)))
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    run_paths(m.example41(), 1.5, 2.0, 1e-2, 40, 64, 3, 2, moment_p=0.5, workers=workers)
    assert seen[:] == (b"\x01\x00" if workers == 1 else b"\x00\x01")


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("ending", ["return", "draw raises", "step raises", "interrupt"])
def test_no_drawer_outlives_its_run(workers, ending, monkeypatch):
    baseline = threading.active_count()
    step_paths, path_generator, steps = engine.step_paths, engine.path_generator, []

    def step(lanes, coarse):
        steps.append(coarse.shape)
        if len(steps) == 2 and ending == "step raises":
            raise _Boom("second block")
        if len(steps) == 2 and ending == "interrupt":  # as Ctrl-C would, while the caller waits
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return step_paths(lanes, coarse)

    def generator(master_seed, path_index):
        if path_index == 21 and ending == "draw raises":
            raise _Boom("no generator for path 21")
        return path_generator(master_seed, path_index)

    monkeypatch.setattr(engine, "BLOCK_STEPS", 5)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    monkeypatch.setattr(engine, "step_paths", step)
    monkeypatch.setattr(engine, "path_generator", generator)
    expected = {"draw raises": _Boom, "step raises": _Boom, "interrupt": KeyboardInterrupt}.get(ending)
    try:
        run_paths(m.example41(), 1.5, 2.0, 1e-2, 2000, 48, 5, 1, moment_p=0.5, workers=workers)
    except BaseException as exc:  # noqa: BLE001 - checked below
        assert type(exc) is expected
    else:
        assert expected is None and len(steps) == 400
    assert threading.active_count() == baseline
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


class _RaisesOnRebuild(Exception):
    def __init__(self, path, reason):  # pickles, but cannot be rebuilt from its one-string args
        super().__init__(f"path {path}: {reason}")


def test_a_drawer_error_that_does_not_unpickle_arrives_with_its_traceback(monkeypatch):
    def failing(master_seed, path_index):
        raise _RaisesOnRebuild(path_index, "no generator")

    monkeypatch.setattr(engine, "path_generator", failing)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    with pytest.raises(RuntimeError, match=r"_RaisesOnRebuild: path \d+: no generator"):
        run_paths(m.example41(), 1.5, 2.0, 1e-2, 20, 48, 5, 1, workers=2)


def test_a_caller_that_ignores_sigchld_still_gets_its_result():
    # with SIGCHLD ignored the kernel reaps each drawer itself, and waitpid finds no child to wait for
    def run(workers):
        return run_paths(m.example41(), 1.5, 2.0, 1e-2, 600, 1024, 3, 1, moment_p=0.5, workers=workers)

    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        pooled = run(2)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    single = run(1)
    for name in ("moment_sum", "moment_sqsum", "alive"):
        assert getattr(pooled, name).tobytes() == getattr(single, name).tobytes()


@pytest.mark.parametrize("workers", [2, 4])
def test_without_fork_the_caller_draws_the_same_bytes(workers, monkeypatch):
    # em from x0 = 3 loses some paths; 100 paths make windows of 32, 32, 32 and 4, 60 steps blocks of 7 and a 4
    baseline, caller, drawn_in = threading.active_count(), (os.getpid(), threading.get_ident()), set()
    path_generator = engine.path_generator

    class Recorded:
        def __init__(self, generator):
            self.generator = generator

        def standard_normal(self, **kwargs):
            drawn_in.add((os.getpid(), threading.get_ident()))
            return self.generator.standard_normal(**kwargs)

    def run(workers):
        with np.errstate(over="ignore", invalid="ignore"):
            return run_paths(m.example41(), np.inf, 3.0, 5e-3, 60, 100, 13, 2, moment_p=0.5, record_paths=40,
                             workers=workers)

    monkeypatch.setattr(engine, "BLOCK_STEPS", 7)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    monkeypatch.setattr(engine, "WINDOW_SEGMENTS", 4)
    expected = run(1)
    assert 0 < expected.diverged_paths < 100
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(engine, "path_generator", lambda seed, i: Recorded(path_generator(seed, i)))
    for got, want in zip(_arrays(run(workers)), _arrays(expected)):
        assert got.tobytes() == want.tobytes()
    assert drawn_in == {caller}  # every draw ran in the calling thread
    assert threading.active_count() == baseline
    with pytest.raises(ChildProcessError):  # no child was started
        os.waitpid(-1, os.WNOHANG)


def _sq(x):
    return np.sum(x * x, axis=-1, keepdims=True)


_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # the rotation by 90 degrees
# d = 2: a cubic drift that turns about the origin, and a diffusion that grows like |x|^2
SPIRAL = SdeModel("spiral", 2, lambda x: x + _sq(x) * (x @ _J.T), lambda x: np.sqrt(_sq(x) + 2.0) * x,
                  lambda r: 1.0 + 3.0 * r * r)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("refinement", [1, 3])
def test_a_two_dimensional_model_steps_each_lane_as_its_path_alone(refinement, workers, monkeypatch):
    # 24 paths in segments of 4 and windows of 12, 30 steps in blocks of 4: from (3, 0.5) every mtem
    # lane leaves the ball of radius 2, where it is truncated, and some em lanes freeze at steps on
    # and off block edges
    x0, delta, steps, paths, seed, radii = (3.0, 0.5), 0.02, 30, 24, 7, (2.0, np.inf)
    monkeypatch.setattr(engine, "CHUNK_PATHS", 4)
    monkeypatch.setattr(engine, "BLOCK_STEPS", 4)
    monkeypatch.setattr(engine, "WINDOW_SEGMENTS", 3)
    both = run_paths(SPIRAL, radii, x0, delta, steps, paths, seed, refinement, record_paths=paths,
                     workers=workers)
    mtem, em = both.split(2)
    assert mtem.diverged_paths == 0 and np.all(np.hypot.reduce(mtem.states, axis=-1).max(axis=1) > 2.0)
    assert 5 <= em.diverged_paths < paths
    for lane in range(both.paths):
        radius, i = radii[lane // paths], lane % paths
        rec = m.simulate_path(SPIRAL, radius, "mtem" if radius < np.inf else "em", x0, delta, steps,
                              m.BrownianPath.generate(seed, i, delta, steps, refinement=refinement))
        assert int(both.first_divergence[lane]) == (-1 if rec.first_divergence_step is None
                                                    else rec.first_divergence_step)
        assert rec.states.tobytes() == both.states[lane, :rec.states.shape[0]].tobytes()


def _kill_the_drawer_of_path_700(monkeypatch):
    """Make the drawer that opens path 700's stream SIGKILL itself there; the test's own process never does."""
    parent, path_generator = os.getpid(), engine.path_generator

    def generator(master_seed, path_index):
        if path_index == 700 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return path_generator(master_seed, path_index)

    monkeypatch.setattr(engine, "path_generator", generator)


def test_a_drawer_that_dies_without_replying_is_a_drawer_error(monkeypatch):
    # path 700 of 1,024 lies in paths 512 to 1,023, the second half, which drawer 1 of 2 draws
    baseline = threading.active_count()
    _kill_the_drawer_of_path_700(monkeypatch)
    error = _error_within(20, lambda: run_paths(m.example41(), 1.5, 2.0, 1e-2, 20, 1024, 5, 1, workers=2))
    assert isinstance(error, DrawerError)
    assert re.fullmatch(rf"drawer 1 \(pid \d+\) ended without replying, killed by signal {int(signal.SIGKILL)}",
                        str(error))
    assert threading.active_count() == baseline
    with pytest.raises(ChildProcessError):  # both drawers reaped, the dead one too
        os.waitpid(-1, os.WNOHANG)


def test_the_cli_exits_5_with_one_line_when_a_drawer_dies(tmp_path, monkeypatch, capsys):
    _kill_the_drawer_of_path_700(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--paths", "1024", "--steps", "20", "--refinement", "1", "--workers", "2"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("drawer error: drawer 1 (pid ") and err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # no CSV, no manifest


@contextlib.contextmanager
def _sigchld_ignored():
    """SIGCHLD ignored: the kernel reaps each child itself, so waitpid finds no child to wait for."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


def test_a_dead_drawer_in_a_caller_that_ignores_sigchld_is_a_drawer_error(monkeypatch):
    baseline = threading.active_count()
    _kill_the_drawer_of_path_700(monkeypatch)
    with _sigchld_ignored():
        error = _error_within(20, lambda: run_paths(m.example41(), 1.5, 2.0, 1e-2, 20, 1024, 5, 1, workers=2))
    assert isinstance(error, DrawerError)
    assert re.fullmatch(r"drawer 1 \(pid \d+\) ended without replying, exit status unknown", str(error))
    assert threading.active_count() == baseline
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_cli_exits_5_when_a_drawer_dies_in_a_caller_that_ignores_sigchld(tmp_path, monkeypatch, capsys):
    _kill_the_drawer_of_path_700(monkeypatch)
    monkeypatch.chdir(tmp_path)
    with _sigchld_ignored():
        code = main(["simulate", "--paths", "1024", "--steps", "20", "--refinement", "1", "--workers", "2"])
    err = capsys.readouterr().err
    assert (code, err.count("\n")) == (5, 1) and err.startswith("drawer error: drawer 1 (pid ")
    assert err.endswith("exit status unknown\n") and "Traceback" not in err


@pytest.mark.parametrize("workers", [1, 2])
def test_every_block_of_every_window_is_stepped_when_every_lane_diverges(workers, monkeypatch):
    # CHUNK_PATHS 4 and WINDOW_SEGMENTS 2: windows of 8 paths, 3 of them over 20 paths
    step_paths, calls = engine.step_paths, []

    def counted(lanes, coarse):
        calls.append(coarse.shape)
        return step_paths(lanes, coarse)

    monkeypatch.setattr(engine, "CHUNK_PATHS", 4)
    monkeypatch.setattr(engine, "WINDOW_SEGMENTS", 2)
    monkeypatch.setattr(engine, "step_paths", counted)
    runs = []
    for block in (7, 30):  # 30 steps: 5 blocks, the last one ragged, then the whole horizon as one block
        monkeypatch.setattr(engine, "BLOCK_STEPS", block)
        runs.append(run_paths(m.example41(), np.inf, 1000.0, 5e-3, 30, 20, 9, 1, moment_p=0.5, record_paths=20,
                              workers=workers))
    blocked, whole = runs
    assert blocked.diverged_paths == 20 and blocked.first_divergence.max() < 7  # every lane froze in block 1
    assert len(calls) == 3 * 5 + 3
    for a, b in zip(_arrays(blocked), _arrays(whole)):
        assert a.tobytes() == b.tobytes()


def test_a_run_beside_another_in_a_second_thread_ends_on_its_own(monkeypatch):
    # a 1,024 x 2,000 run, then a 1,024 x 8,000 one 30 ms later, each with 2 drawers: the second run's drawers
    # are forked while the first one's pipes are open, and must not keep them open.  Holding them, they would
    # hide the end of file from the first run's drawers until the second run ends, and its drawers be killed.
    fork, waitpid, kill = os.fork, os.waitpid, os.kill
    live, most, kills, ends, errors, lock = set(), [0], [], {}, [], threading.Lock()

    def counted_fork():
        if pid := fork():
            with lock:
                live.add(pid)
                most[0] = max(most[0], len(live))
        return pid

    def counted_waitpid(pid, options):
        reaped = waitpid(pid, options)
        with lock:
            live.discard(reaped[0])
        return reaped

    def recorded_kill(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    def run(steps):
        try:
            run_paths(m.example41(), 1.5, 2.0, 1e-2, steps, 1024, 5, 1, workers=2)
        except BaseException as exc:  # noqa: BLE001 - checked below
            errors.append(exc)
        ends[steps] = time.monotonic()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    monkeypatch.setattr(os, "kill", recorded_kill)
    threads = [threading.Thread(target=run, args=(steps,)) for steps in (2_000, 8_000)]
    threads[0].start()
    time.sleep(0.03)
    threads[1].start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert errors == [] and kills == []
    assert ends[2_000] < ends[8_000]
    assert 2 <= most[0] <= 4 and not live


def _refuse_call(monkeypatch, name, call, error):
    """Make the ``call``-th ``os.<name>`` of the test raise ``error``, and pass every other call through."""
    original, calls = getattr(os, name), []

    def refused(*args):
        calls.append(args)
        if len(calls) == call:
            raise error
        return original(*args)

    monkeypatch.setattr(os, name, refused)
    return calls


@pytest.mark.parametrize("name,call", [("fork", 1), ("fork", 2), ("pipe", 4)])
def test_a_refused_fork_or_pipe_draws_in_the_caller_to_the_same_bytes(name, call, monkeypatch):
    # em from x0 = 3 loses some paths; 64 paths in segments of 8, so that 2 drawers would share each window.
    # The 4th pipe is drawer 1's reply pipe, refused after its command pipe was opened.
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    baseline, descriptors = threading.active_count(), len(os.listdir("/proc/self/fd"))

    def run(workers):
        with np.errstate(over="ignore", invalid="ignore"):
            return run_paths(m.example41(), np.inf, 3.0, 5e-3, 300, 64, 13, 2, moment_p=0.5, record_paths=10,
                             workers=workers)

    expected = run(1)
    assert 0 < expected.diverged_paths < 64
    calls = _refuse_call(monkeypatch, name, call, BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(2)
    assert len(calls) == call
    for a, b in zip(_arrays(got), _arrays(expected)):
        assert a.tobytes() == b.tobytes()
    assert threading.active_count() == baseline
    assert len(os.listdir("/proc/self/fd")) == descriptors  # no pipe end left open
    with pytest.raises(ChildProcessError):  # the drawer forked before the refusal is reaped
        os.waitpid(-1, os.WNOHANG)


def test_the_cli_draws_in_the_caller_when_a_fork_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_PATHS", 8)
    monkeypatch.chdir(tmp_path)
    argv = ["exponent", "--model", "example41", "--delta", "5e-4", "--steps", "200", "--paths", "64", "--seed", "11",
            "--refinement", "1", "--x0", "2.0", "--window", "0.2:1.0"]
    assert main([*argv, "--out", "one", "--workers", "1"]) == 0
    calls = _refuse_call(monkeypatch, "fork", 2, BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN)))
    assert main([*argv, "--out", "two", "--workers", "2"]) == 0
    assert len(calls) == 2
    written = sorted(path.name for path in tmp_path.glob("one_*.csv"))
    assert written
    for name in written:
        assert (tmp_path / name.replace("one_", "two_", 1)).read_bytes() == (tmp_path / name).read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
