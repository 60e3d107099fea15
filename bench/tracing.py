"""Outside-in tracing of mtemsim: spans around public functions at their import sites.

Nothing in the package is edited.  For the length of a traced run the
names a module imported from another module (``engine.fine_increments``,
``stability.run_paths``, ``cli.verify_lemma_global_lipschitz``, ...) are
rebound to wrappers that record a span, and the model's drift and diffusion
callables are wrapped the same way.  Each span holds its name, start, end and
parent; a stack per thread keeps self time correct when ``run_paths`` hands
chunks to worker threads, and chunk jobs submitted to the engine's thread
pool adopt the submitting span as their parent.  Counts (lanes, normals,
truncated lanes, diverged lane-steps) are taken at the same boundaries, after
the span has ended; the time that takes is booked apart so it inflates no
layer's self time.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

__all__ = ["Span", "Tracer", "self_times", "layer_metrics", "PER_LAYER_UNITS"]


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "book", "counts")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = self.book = 0.0
        self.counts = None


# --- counts taken at span boundaries ----------------------------------------


def _lanes(xs) -> int:
    xs = np.asarray(xs)
    return xs.size // xs.shape[-1] if xs.ndim else 1


def _count_normals(args, kwargs, result):
    return {"normals": int(np.size(result))}


def _count_lane_steps(args, kwargs, result):
    return {"lanes": _lanes(result)}


def _count_truncation(args, kwargs, result):
    xs, radius = np.asarray(args[1], dtype=float), float(args[2])
    fired = 0
    if not math.isinf(radius):
        fired = int(np.count_nonzero(np.sqrt(np.einsum("...i,...i->...", xs, xs)) > radius))
    return {"lanes": _lanes(xs), "fired": fired}


def _count_coefficient(args, kwargs, result):
    return {"lanes": _lanes(args[0])}


def _run_paths_counter(chunk_paths_default):
    def count(args, kwargs, result):
        first = np.asarray(result.first_divergence)
        diverged = first[first >= 0]
        chunk = kwargs.get("chunk_paths", chunk_paths_default)
        return {
            "path_steps": result.paths * result.steps,
            "wasted": int(np.sum(result.steps - diverged)),
            "chunks": -(-result.paths // chunk),
        }
    return count


def _sites(pkg):
    """(module, imported name, span name, counter) rebound for a traced run."""
    count_run_paths = _run_paths_counter(getattr(pkg.engine, "CHUNK_PATHS", 1))
    return (
        ("engine", "fine_increments", "schemes.fine_increments", _count_normals),
        ("engine", "advance_states", "schemes.advance_states", _count_lane_steps),
        ("schemes", "truncated_batch", "truncation.truncated_batch", _count_truncation),
        ("stability", "truncated_batch", "truncation.truncated_batch", _count_truncation),
        ("stability", "run_paths", "engine.run_paths", count_run_paths),
        ("cli", "run_paths", "engine.run_paths", count_run_paths),
        ("cli", "run_stability_mc", "stability.run_stability_mc", None),
        ("cli", "fit_exponent", "stability.fit_exponent", None),
        ("cli", "verify_lemma_global_lipschitz", "stability.verify_lemmas", None),
        ("cli", "verify_lemma_lambda_preserved", "stability.verify_lemmas", None),
        ("cli", "estimate_lambda", "models.estimate_lambda", None),
        ("cli", "run_command", "cli.run_command", None),
    )


class Tracer:
    """Collects spans from wrapped callables; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.lipschitz_evals = 0
        self._local = threading.local()

    def reset(self) -> None:
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def run(self, name, parent, fn, args=(), kwargs=None, count=None):
        """Call ``fn`` inside a span; ``parent`` defaults to this thread's open span."""
        stack = self._stack()
        span = Span(name, parent if parent is not None else (stack[-1] if stack else None),
                    threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if count is not None:
            span.counts = count(args, kwargs or {}, result)
            span.book = time.perf_counter() - span.end
        return result

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.run(name, None, fn, args, kwargs, count)

        traced.__wrapped__ = fn
        return traced

    def counted_lipschitz(self, model):
        """The model with its local Lipschitz bound counting evaluations."""
        bound = model.lipschitz_bound

        def counted(radius):
            self.lipschitz_evals += 1
            return bound(radius)

        return dataclasses.replace(model, lipschitz_bound=counted)

    def traced_model(self, model):
        """The model with drift and diffusion recorded as ``models.coeff`` spans."""
        return dataclasses.replace(
            model,
            drift=self.wrap("models.coeff", model.drift, _count_coefficient),
            diffusion=self.wrap("models.coeff", model.diffusion, _count_coefficient),
        )

    @contextmanager
    def patched(self, pkg):
        """Rebind the package's import sites to traced wrappers, restoring them on exit."""
        saved = []

        def rebind(module, name, value):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)

        try:
            # A site that a later version of the package no longer has is skipped.
            for module_name, attr, span_name, count in _sites(pkg):
                module = getattr(pkg, module_name)
                if hasattr(module, attr):
                    rebind(module, attr, self.wrap(span_name, getattr(module, attr), count))
            if hasattr(pkg.cli, "get_model"):
                get_model = pkg.cli.get_model
                rebind(pkg.cli, "get_model", lambda *a, **k: self.traced_model(get_model(*a, **k)))
            if hasattr(pkg.engine, "ThreadPoolExecutor"):
                rebind(pkg.engine, "ThreadPoolExecutor", self._traced_pool(pkg.engine.ThreadPoolExecutor))
            yield
        finally:
            for module, name, value in reversed(saved):
                setattr(module, name, value)

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run, "engine.chunk", tracer.current(), fn, args, kwargs)

        return TracedPool


# --- analysis -----------------------------------------------------------------


def self_times(spans) -> dict:
    """Self time of each span: its duration minus what its children cover.

    Children that ran in other threads may overlap one another, so the part
    of the parent's interval they cover is the length of their union, and
    the bookkeeping after each child's end is subtracted too.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        kids = children.get(id(span))
        if kids:
            intervals = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
            lo, hi = intervals[0]
            for start, end in intervals[1:]:
                if start > hi:
                    covered += hi - lo
                    lo, hi = start, end
                else:
                    hi = max(hi, end)
            covered += hi - lo + sum(k.book for k in kids)
        result[id(span)] = (span.end - span.start) - covered
    return result


# Per-layer metric names and units, in the order the benchmark prints them.
PER_LAYER_UNITS = {
    "truncation.truncated_batch_calls": "count",
    "truncation.truncated_batch_s": "s",
    "truncation.lanes": "count",
    "truncation.fire_frac": "ratio",
    "truncation.radius_s": "s",
    "truncation.lipschitz_evals": "count",
    "models.coeff_calls": "count",
    "models.coeff_lanes": "count",
    "models.coeff_s": "s",
    "models.coeff_lanes_per_lane_step": "ratio",
    "models.estimate_lambda_s": "s",
    "schemes.fine_increments_calls": "count",
    "schemes.fine_increments_s": "s",
    "schemes.normals": "count",
    "schemes.normals_per_s": "1/s",
    "schemes.advance_states_calls": "count",
    "schemes.advance_states_self_s": "s",
    "schemes.lane_steps": "count",
    "engine.run_paths_calls": "count",
    "engine.run_paths_self_s": "s",
    "engine.chunks": "count",
    "engine.path_steps": "count",
    "engine.wasted_lane_step_frac": "ratio",
    "stability.run_stability_mc_self_s": "s",
    "stability.fit_exponent_s": "s",
    "stability.verify_lemmas_s": "s",
    "cli.main_self_s": "s",
    "cli.run_command_self_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "count",
    "cli.csv_bytes_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.bookkeeping_s": "s",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, csv_rows: int = 0, csv_bytes: int = 0) -> dict:
    """Per-layer numbers of one traced run, from its spans and the CLI's files.

    Times are thread-seconds: under two workers the layers' busy times add
    up to more than the wall time.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    bookkeeping = 0.0
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += span.end - span.start
        self_s[span.name] += own[id(span)]
        bookkeeping += span.book
        for key, value in (span.counts or {}).items():
            counts[span.name][key] += value

    trunc = counts["truncation.truncated_batch"]
    runs = counts["engine.run_paths"]
    lane_steps = counts["schemes.advance_states"]["lanes"]
    coeff_lanes = counts["models.coeff"]["lanes"]
    normals = counts["schemes.fine_increments"]["normals"]
    cli_self = self_s["cli.run_command"]
    return {
        "truncation.truncated_batch_calls": calls["truncation.truncated_batch"],
        "truncation.truncated_batch_s": busy["truncation.truncated_batch"],
        "truncation.lanes": trunc["lanes"],
        "truncation.fire_frac": _ratio(trunc["fired"], trunc["lanes"]),
        "models.coeff_calls": calls["models.coeff"],
        "models.coeff_lanes": coeff_lanes,
        "models.coeff_s": busy["models.coeff"],
        "models.coeff_lanes_per_lane_step": _ratio(coeff_lanes, lane_steps),
        "models.estimate_lambda_s": busy["models.estimate_lambda"],
        "schemes.fine_increments_calls": calls["schemes.fine_increments"],
        "schemes.fine_increments_s": busy["schemes.fine_increments"],
        "schemes.normals": normals,
        "schemes.normals_per_s": _ratio(normals, busy["schemes.fine_increments"]),
        "schemes.advance_states_calls": calls["schemes.advance_states"],
        "schemes.advance_states_self_s": self_s["schemes.advance_states"],
        "schemes.lane_steps": lane_steps,
        "engine.run_paths_calls": calls["engine.run_paths"],
        "engine.run_paths_self_s": self_s["engine.run_paths"] + self_s["engine.chunk"],
        "engine.chunks": runs["chunks"],
        "engine.path_steps": runs["path_steps"],
        "engine.wasted_lane_step_frac": _ratio(runs["wasted"], runs["path_steps"]),
        "stability.run_stability_mc_self_s": self_s["stability.run_stability_mc"],
        "stability.fit_exponent_s": busy["stability.fit_exponent"],
        "stability.verify_lemmas_s": busy["stability.verify_lemmas"],
        "cli.main_self_s": self_s["cli.main"],
        "cli.run_command_self_s": cli_self,
        "cli.csv_rows": csv_rows,
        "cli.csv_bytes": csv_bytes,
        "cli.csv_bytes_per_s": _ratio(csv_bytes, cli_self),
        "trace.spans": len(spans),
        "trace.bookkeeping_s": bookkeeping,
    }
