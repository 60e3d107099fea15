"""Engine runs in which every path of a chunk diverges, and chunk threading.

Once every lane of a chunk is frozen, the engine stops stepping it and fills
the remaining moment sums from the last step.  The digest below pins the
arrays of such runs to those of an engine that stepped frozen lanes to the
horizon; it is checked only on the numpy version it was captured on.

Worker threads draw the increments of their chunks concurrently, but only one
chunk steps at a time.
"""

import hashlib
import threading
import time

import numpy as np
import pytest

import mtemsim as m
from mtemsim.engine import run_paths
from mtemsim.models import SdeModel

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
