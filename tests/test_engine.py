"""Engine runs in which every path diverges, the engine's threading and its layout.

Once every lane of a window is frozen, the engine stops stepping it and fills
the remaining moment sums from the last step.  The digest below pins the
arrays of such runs to those of an engine that stepped frozen lanes to the
horizon; it is checked only on the numpy version it was captured on.

Worker threads draw each block's increments together, and one of them steps
every lane.  Neither the worker count, the block length nor the window
changes an output byte, and memory does not grow with the number of steps.
"""

import hashlib
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
from mtemsim.models import SdeModel
from mtemsim.truncation import default_policy

CAPTURED_ON_NUMPY = "2.4.6"

# (x0, moment order, overflow guard): at x0 = 1000 and x0 = 50 every em path
# diverges, at x0 = 3 only some do.  Orders 0 and -0.5 make 0 ** p nonzero.
CONFIGS = [(1000.0, 0.5, 1e10), (1000.0, 0.0, 1e10), (50.0, -0.5, 1e4), (3.0, 0.25, 1e10)]
LAYOUTS = [(4, 512), (40, 16), (600, 512)]  # (paths, chunk_paths)
DIGEST = "164b7a2362224e576297d03e0523136117d23e082dfb281ea3317217178f8a73"


@pytest.mark.skipif(np.__version__ != CAPTURED_ON_NUMPY,
                    reason=f"digest was captured on numpy {CAPTURED_ON_NUMPY}")
def test_fully_diverged_chunks_keep_their_bytes():
    ex41 = m.example41()
    digest = hashlib.sha256()
    all_diverged = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x0, p, guard in CONFIGS:
            for paths, chunk in LAYOUTS:
                r = run_paths(ex41, np.inf, x0, 5e-3, 300, paths, 9, 1, moment_p=p,
                              want_terminal=True, record_paths=paths, overflow_guard=guard,
                              chunk_paths=chunk)
                all_diverged += r.diverged_paths == paths
                for a in (r.first_divergence, r.terminal_norm, r.moment_sum,
                          r.moment_sqsum, r.alive, r.states):
                    digest.update(np.ascontiguousarray(a).tobytes())
    assert all_diverged == 8
    assert digest.hexdigest() == DIGEST


def test_fully_diverged_run_ends_with_zero_moments():
    r = run_paths(m.example41(), np.inf, 1000.0, 5e-3, 300, 40, 9, 1, moment_p=0.5,
                  want_terminal=True, chunk_paths=16)
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


def test_chunks_step_one_at_a_time_with_the_same_bytes():
    probe = _InFlight()
    model = SdeModel("probe", 1, probe, lambda x: 0.5 * x, lambda r: 1.0 + 3.0 * r * r)
    runs = [run_paths(model, 1.5, 2.0, 1e-2, 40, 48, 5, 2, moment_p=0.5, want_terminal=True,
                      record_paths=48, chunk_paths=8, workers=workers) for workers in (1, 4)]
    assert probe.peak == 1
    single, pooled = runs
    for name in ("first_divergence", "terminal_norm", "moment_sum", "moment_sqsum", "alive", "states"):
        assert getattr(pooled, name).tobytes() == getattr(single, name).tobytes()


def _arrays(r):
    return [getattr(r, name) for name in ("first_divergence", "terminal_norm", "moment_sum",
                                          "moment_sqsum", "alive", "states")]


@pytest.mark.skipif(np.__version__ != CAPTURED_ON_NUMPY,
                    reason=f"digest was captured on numpy {CAPTURED_ON_NUMPY}")
def test_fully_diverged_runs_keep_their_bytes_on_two_workers():
    # the stepping thread stops early here, and must release the drawing thread
    ex41 = m.example41()
    digest = hashlib.sha256()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x0, p, guard in CONFIGS:
            for paths, chunk in LAYOUTS:
                r = run_paths(ex41, np.inf, x0, 5e-3, 300, paths, 9, 1, moment_p=p,
                              want_terminal=True, record_paths=paths, overflow_guard=guard,
                              chunk_paths=chunk, workers=2)
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
@pytest.mark.parametrize("failing_call", [30, 700])  # in the first block, in the second
def test_a_step_that_raises_reaches_the_caller_and_ends_every_thread(workers, failing_call):
    baseline = threading.active_count()
    model = SdeModel("boom", 1, _FailsOnCall(failing_call), lambda x: 0.5 * x, lambda r: 1.0 + 3.0 * r * r)
    error = _error_within(20, lambda: run_paths(model, 1.5, 2.0, 1e-2, 2000, 48, 5, 1, moment_p=0.5,
                                                chunk_paths=8, workers=workers))
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
    error = _error_within(20, lambda: run_paths(m.example41(), 1.5, 2.0, 1e-2, 2000, 48, 5, 1,
                                                chunk_paths=8, workers=workers))
    assert isinstance(error, _Boom)
    assert threading.active_count() == baseline


def test_many_threads_switching_often_keep_the_bytes(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter
    # allows, six threads meeting at the barrier at each of 1,000 block
    # starts: a segment drawn twice or never would change the bytes, a lost
    # wake-up would hang the run
    monkeypatch.setattr(engine, "BLOCK_STEPS", 2)

    def run(workers):
        return run_paths(m.example41(), 1.5, 2.0, 1e-2, 400, 300, 17, 2, moment_p=0.5,
                         want_terminal=True, record_paths=9, chunk_paths=8, workers=workers)

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

    def run(radius, x0, workers):
        with np.errstate(over="ignore", invalid="ignore"):
            return run_paths(ex41, radius, x0, 5e-3, 60, paths, 13, refinement, moment_p=0.5,
                             want_terminal=True, record_paths=paths // 2 + 3, chunk_paths=128,
                             workers=workers)

    expected = [run(radius, x0, 1) for radius, x0 in runs]
    assert expected[1].diverged_paths not in (0, paths) and expected[2].diverged_paths == paths
    monkeypatch.setattr(engine, "BLOCK_STEPS", 7)  # 60 steps: 8 blocks and a ragged one
    monkeypatch.setattr(engine, "WINDOW_SEGMENTS", 2)  # several windows, the last one ragged
    monkeypatch.setattr(engine, "GROUP_NORMALS", 50)  # draws summed 7 or 2 paths at a time
    for workers in (1, 2, 3):
        for (radius, x0), reference in zip(runs, expected):
            for got, want in zip(_arrays(run(radius, x0, workers)), _arrays(reference)):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_memory_is_bounded_by_window_and_block_not_by_steps(workers):
    ex41 = m.example41()
    radius = default_policy(ex41).radius(5e-4)
    tracemalloc.start()
    try:
        run_paths(ex41, radius, 2.0, 5e-4, 10_000, 1024, 1, 1, moment_p=0.5, want_terminal=True,
                  workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (paths, steps) increments alone would take 78 MiB
    assert peak < 16 * 2**20


@pytest.mark.parametrize("workers", [2, 4])
def test_no_draw_runs_while_a_block_is_stepped(workers, monkeypatch):
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
    monkeypatch.setattr(engine, "step_paths", slow_step)
    monkeypatch.setattr(engine, "path_generator", lambda seed, i: Checked(path_generator(seed, i)))
    box = {}
    assert _error_within(20, lambda: box.setdefault("run", run_paths(
        m.example41(), 1.5, 2.0, 1e-2, 40, 64, 3, 2, moment_p=0.5, chunk_paths=8, workers=workers))) is None
    assert box["run"].alive[-1] == 64  # 8 blocks stepped over 8 segments, every draw checked


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("refinement", [3, 16])
def test_a_single_path_equals_its_lane_at_every_refinement(refinement, workers):
    # 1,100 steps: two full blocks and a ragged one; paths on both sides of a segment edge
    ex41 = m.example41()
    delta, steps, paths = 5e-4, 1100, 530
    radius = default_policy(ex41).radius(delta)
    batch = run_paths(ex41, radius, 2.0, delta, steps, paths, 31, refinement, record_paths=paths,
                      workers=workers)
    for i in (0, 511, 512, 529):
        path = m.BrownianPath.generate(31, i, delta, steps, refinement=refinement)
        rec = m.simulate_path(ex41, radius, "mtem", 2.0, delta, steps, path)
        assert rec.states.tobytes() == batch.states[i].tobytes()


def test_the_callers_errstate_holds_on_every_worker_thread():
    # every em path from x0 = 50 diverges, and 0 ** -0.5 divides by zero
    def run(workers):
        return run_paths(m.example41(), np.inf, 50.0, 5e-3, 300, 40, 9, 1, moment_p=-0.5,
                         want_terminal=True, record_paths=40, overflow_guard=1e4, chunk_paths=16,
                         workers=workers)

    with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        single, pooled = run(1), run(2)
    assert single.diverged_paths == 40
    for got, want in zip(_arrays(pooled), _arrays(single)):
        assert got.tobytes() == want.tobytes()
