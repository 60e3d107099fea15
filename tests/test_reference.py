"""A slow reference for ``run_paths`` and a seeded sweep that holds the engine to it byte for byte.

The engine promises that no output byte depends on the worker count,
``BLOCK_STEPS``, ``WINDOW_SEGMENTS`` or how its drawers share the paths.
The reference below shares only the stepping kernel with it: each path's
coarse increments come from ``BrownianPath.generate``, each lane is stepped
alone as a (1, d) array by ``advance_states``, and the documented rules are
applied one lane and one step at a time.  A lane freezes on the first step
its norm is not <= the overflow guard: that state is recorded, flagged, and
the lane is +0.0, with norm 0, from then on.  Moment sums are, for each
step, the sums over each segment of ``CHUNK_PATHS`` paths, merged with
Kahan summation in segment order.

The sweep draws about 40 configurations from a fixed-seed generator, with
small blocks, windows and segments so that steps and paths fall on both
sides of their boundaries, and compares every array of the engine's result
with the reference's.
"""

import functools

import numpy as np
import pytest

import mtemsim as m
from mtemsim import engine
from mtemsim.models import state_norms
from mtemsim.schemes import BrownianPath, advance_states

from test_engine import SPIRAL

MODELS = {"example41": m.example41(), "linear": m.linear(1.0, 2.0), "spiral": SPIRAL}
FIELDS = ("first_divergence", "terminal_norm", "moment_sum", "moment_sqsum", "alive", "states")


def reference_run(model, radii, x0, delta, steps, paths, seed, refinement, moment_p, record_paths, segment,
                  guard):
    """The fields of ``run_paths``' result, one lane and one step at a time."""
    copies, recorded = len(radii), min(record_paths, paths)
    first = np.full(copies * paths, -1, dtype=np.int64)
    terminal = np.full(copies * paths, np.nan)
    states = np.zeros((copies * recorded, steps + 1, model.dimension)) if recorded else None
    norms = np.empty((steps + 1, paths))  # step-major, so that a segment of one step is contiguous
    start = np.array(x0, dtype=float).reshape(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(paths):
            db = BrownianPath.generate(seed, i, delta, steps, refinement).coarse()
            for s, radius in enumerate(radii):
                lane, x, norm = s * paths + i, start, state_norms(start)[0]
                norms[0, i] = norm
                if i < recorded:
                    states[s * recorded + i, 0] = start[0]
                for k in range(steps):
                    if first[lane] < 0:
                        x = advance_states(model, radius, x, delta, db[k:k + 1])
                        norm = state_norms(x)[0]
                        if i < recorded:
                            states[s * recorded + i, k + 1] = x[0]
                        if not norm <= guard:
                            first[lane], norm = k + 1, 0.0
                    norms[k + 1, i] = norm
                if first[lane] < 0:
                    terminal[lane] = norm
        if moment_p is None:
            return first, terminal, None, None, None, states
        powers = norms**moment_p
        sums, sqsums, comp_sum, comp_sq = (np.zeros(steps + 1) for _ in range(4))
        for a in range(0, paths, segment):  # segment order
            for total, comp, values in ((sums, comp_sum, powers), (sqsums, comp_sq, powers * powers)):
                term = np.array([np.add.reduce(row[a:a + segment]) for row in values])
                y = term - comp
                t = total + y
                comp[:] = (t - total) - y
                total[:] = t
    alive = np.array([paths] + [np.count_nonzero((first < 0) | (first > k)) for k in range(1, steps + 1)])
    return first, terminal, sums, sqsums, alive, states


def _near(rng, unit, most):
    """A count within one of a multiple of ``unit``, at least 1 and at most ``most``."""
    return int(np.clip(unit * rng.integers(0, most // unit + 1) + rng.integers(-1, 2), 1, most))


def _table(size=40, seed=20250):
    """Configurations drawn from a fixed-seed generator: every shape of radius, worker count and refinement."""
    rng, table = np.random.default_rng(seed), []
    for n in range(size):
        name = ("example41", "linear", "spiral")[n % 3]
        shape = ("one", "pair", "pair with inf")[n // 3 % 3]
        block, window, chunk = (int(v) for v in rng.integers(2, 6, size=3))
        refinement = int(rng.choice([1, 3]))
        r = [float(v) for v in rng.uniform(0.5, 4.0, size=2)]
        radii = {"one": [r[0] if rng.random() < 0.7 else np.inf], "pair": r,
                 "pair with inf": [r[0], np.inf][:: int(rng.choice([-1, 1]))]}[shape]
        paths, steps = _near(rng, chunk, 3 * window * chunk), _near(rng, block, 4 * block)
        moment_p = float(rng.uniform(0.1, 0.9)) if shape == "one" and paths >= 2 and rng.random() < 0.7 else None
        guard = float(rng.choice([engine.OVERFLOW_GUARD, 1e3]))
        scale = guard * 10.0 ** rng.uniform(-3.0, 0.2)  # lanes freeze at different steps, or all at once
        x0 = (scale * 0.6, scale * 0.8) if name == "spiral" else scale
        table.append(dict(model=name, radii=radii, x0=x0, delta=float(rng.choice([0.01, 0.05, 0.2])), steps=steps,
                          paths=paths, seed=int(rng.integers(2**32)), refinement=refinement, moment_p=moment_p,
                          record_paths=int(rng.integers(0, paths + 2)), workers=int(rng.integers(1, 4)),
                          block=block, window=window, chunk=chunk, guard=guard,
                          group_normals=int(rng.integers(1, 3 * block * refinement))))
    return table


TABLE = _table()


@functools.cache
def _reference(n):
    c = TABLE[n]
    return reference_run(MODELS[c["model"]], c["radii"], c["x0"], c["delta"], c["steps"], c["paths"], c["seed"],
                         c["refinement"], c["moment_p"], c["record_paths"], c["chunk"], c["guard"])


def _id(n):
    c = TABLE[n]
    return f"{n:02d}-{c['model']}-{len(c['radii'])}r-w{c['workers']}-ref{c['refinement']}"


@pytest.mark.parametrize("n", range(len(TABLE)), ids=_id)
def test_the_engine_writes_the_slow_references_bytes(n, monkeypatch):
    c = TABLE[n]
    for name, key in (("BLOCK_STEPS", "block"), ("WINDOW_SEGMENTS", "window"), ("CHUNK_PATHS", "chunk"),
                      ("OVERFLOW_GUARD", "guard"), ("GROUP_NORMALS", "group_normals")):
        monkeypatch.setattr(engine, name, c[key])
    radius = c["radii"][0] if len(c["radii"]) == 1 and n % 2 else c["radii"]  # a bare radius or a list of one
    with np.errstate(over="ignore", invalid="ignore"):
        run = engine.run_paths(MODELS[c["model"]], radius, c["x0"], c["delta"], c["steps"], c["paths"], c["seed"],
                               c["refinement"], moment_p=c["moment_p"], record_paths=c["record_paths"],
                               workers=c["workers"])
    for field, want in zip(FIELDS, _reference(n)):
        got = getattr(run, field)
        assert (got is None) == (want is None), field
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.tobytes() == want.tobytes(), field


def test_the_table_freezes_no_lane_some_lanes_and_every_lane():
    kinds = []
    for n, c in enumerate(TABLE):
        first = _reference(n)[0]
        kinds.append("none" if first.max() < 0 else "all" if first.min() >= 0 else "some")
    assert min(kinds.count(kind) for kind in ("none", "some", "all")) >= 5, kinds
    assert sum(c["moment_p"] is not None for c in TABLE) >= 8
    assert sum(0 < c["record_paths"] < c["paths"] for c in TABLE) >= 8
    assert {(c["workers"], c["refinement"]) for c in TABLE} == {(w, r) for w in (1, 2, 3) for r in (1, 3)}
