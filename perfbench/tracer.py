"""Span tracing of the halinloop layers, installed from the benchmark side.

``Tracer.install`` replaces each span's function with a timing wrapper
and ``Tracer.restore`` puts the originals back; no file under ``src/``
is edited.  Methods and constructors are wrapped on their class.  Plain
functions are wrapped in every ``halinloop`` module namespace that bound
the name at import time (``experiments`` binds ``loop_diameter``,
``bijection`` binds ``build_halin``, ...).  Generator functions are timed
per ``next()``, so a span covers the work done to produce one item.

Spans are kept in flat arrays (name id, parent index, start, end in ns)
and written once, at the end, by ``dump``.  A span's self time is its
duration minus the durations of its direct children.  ``summary`` gives
the figures of the set-up once plus those of one average cycle, so they
do not grow with the number of cycles a run fits into its time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, qualified name, star): starred spans also report p50/p90 per
# call.  A qualified name that is a class stands for its constructor.
SPANS = (
    ("gw", "sample_conditioned", True),
    ("gw", "mu_from_weights", False),
    ("gw", "exact_conditioned_masses", False),
    ("plane_tree", "PlaneTree", False),
    ("plane_tree", "PlaneTree.height", True),
    ("plane_tree", "enumerate_trees", False),
    ("halin", "enumerate_halin", False),
    ("halin", "satisfies_hstar", False),
    ("halin", "build_halin", True),
    ("halin", "HalinMap.validate", True),
    ("planar_map", "PlanarMap", False),
    ("bijection", "phi", True),
    ("bijection", "phi_inverse", True),
    ("bijection", "pushforward_distribution", False),
    ("looptree", "loop", False),
    ("looptree", "loop_diameter", True),
    ("looptree", "LoopGraph.diameter", True),
    ("looptree", "check_lemma_bound", False),
    ("looptree", "canonical_correspondence", False),
    ("gh_metric", "FiniteMetricSpace", False),
    ("gh_metric", "gh_exact", False),
    ("gh_metric", "gh_lower_bound", False),
    ("gh_metric", "distortion", False),
    ("experiments", "scaling_run", False),
    ("cli", "run", False),
)

SPAN_NAMES = tuple("%s.%s" % (mod, name) for mod, name, _ in SPANS)
STARRED = frozenset("%s.%s" % (mod, name) for mod, name, star in SPANS if star)
# percentiles are meaningful from this many calls on a workload
PERCENTILE_MIN_CALLS = 100


class _TimedIter:
    """Iterator over a generator that records one span per ``next()``."""

    __slots__ = ("_tracer", "_nid", "_gen")

    def __init__(self, tracer: "Tracer", nid: int, gen):
        self._tracer, self._nid, self._gen = tracer, nid, gen

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.enter(self._nid)
        try:
            return next(self._gen)
        finally:
            self._tracer.exit(i)


class Tracer:
    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = self.t1 = self.t_setup = 0
        self.n_setup = 0

    # -- recording -------------------------------------------------------------

    def enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, nid: int, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TimedIter(self, nid, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(i)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every span and start the traced wall clock."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "halinloop" or name.startswith("halinloop.")
        }
        for nid, (modname, qual, _) in enumerate(SPANS):
            home = mods["halinloop." + modname]
            head, _, method = qual.partition(".")
            obj = getattr(home, head)
            if inspect.isclass(obj):
                attr = method or "__init__"
                self._patch(obj, attr, self._wrap(nid, obj.__dict__[attr]))
                continue
            wrapped = self._wrap(nid, obj)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._patch(mod, attr, wrapped)
        self.t0 = time.perf_counter_ns()

    def setup_done(self) -> None:
        """End the set-up part of the trace; later spans belong to the cycles."""
        self.t_setup = time.perf_counter_ns()
        self.n_setup = len(self.name)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Stop the traced wall clock and put every original back."""
        self.t1 = time.perf_counter_ns()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.name, dtype=np.uint8),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.int64),
            np.array(self.end, dtype=np.int64),
        )

    def summary(self, cycles: int) -> dict:
        """Per span: calls and self seconds of the set-up plus one average
        cycle and, for starred spans, the p50/p90 of the inclusive duration
        over the cycles' calls; plus the traced wall time and the part of
        it no span covers, weighted the same way."""
        name, parent, start, end = self._arrays()
        dur = (end - start).astype(np.float64) * 1e-9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        in_cycles = np.arange(len(dur)) >= self.n_setup

        def per_cycle(values, sel) -> float:
            return float(values[sel & ~in_cycles].sum()) + float(values[sel & in_cycles].sum()) / cycles

        wall = ((self.t_setup - self.t0) + (self.t1 - self.t_setup) / cycles) * 1e-9
        one = np.ones(len(dur))
        spans = {}
        for nid, full in enumerate(SPAN_NAMES):
            sel = name == nid
            entry = {"calls": per_cycle(one, sel), "self_s": per_cycle(selft, sel)}
            if full in STARRED:
                d_ms = dur[sel & in_cycles] * 1e3
                entry["percentile_calls"] = len(d_ms)
                entry["p50_ms"] = float(np.percentile(d_ms, 50)) if len(d_ms) else 0.0
                entry["p90_ms"] = float(np.percentile(d_ms, 90)) if len(d_ms) else 0.0
            spans[full] = entry
        attributed = per_cycle(dur, ~has_parent)
        return {
            "cycles": cycles,
            "wall_s": wall,
            "attributed_s": attributed,
            "unattributed_s": wall - attributed,
            "n_spans": int(len(dur)),
            "spans": spans,
        }

    def dump(self, path) -> None:
        name, parent, start, end = self._arrays()
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            setup_spans=self.n_setup,
            setup_end_ns=self.t_setup - self.t0,
            trace_end_ns=self.t1 - self.t0,
            name=name,
            parent=parent,
            start_ns=start - self.t0,
            end_ns=end - self.t0,
        )
