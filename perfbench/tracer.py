"""In-memory span tracer that times the calls into submax's layers from the
benchmark's side.

It wraps the public names that the calling modules look up at call time:
module globals such as ``submax.cgreedy.double_greedy_box`` and methods on
the classes.  The program's source is left as it is.  Spans are stored as
parallel arrays (name, parent span, instance, start, end) and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from submax import cgreedy, dgbox, instances, polytope, setfn, verify

LAYERS = ("instances", "setfn", "polytope", "dgbox", "cgreedy", "verify")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_rows(tr, args, kwargs):
    X = _arg(args, kwargs, 1, "X")
    tr.counts["setfn.multilinear_batch.rows"] += np.atleast_2d(X).shape[0]


def _count_masks(tr, args, kwargs):
    tr.counts["setfn.value_batch.masks"] += np.asarray(
        _arg(args, kwargs, 1, "masks")).size


def _count_coords(tr, args, kwargs):
    tr.counts["dgbox.double_greedy_box.coord_steps"] += \
        _arg(args, kwargs, 0, "inst").f.n


def _note_point(tr, args, kwargs):
    x = _arg(args, kwargs, 1, "x")
    tr.points.add(np.asarray(getattr(x, "v", x)).tobytes())


def _targets():
    """(owner, attribute, span name, counter) for every wrapped call."""
    P = polytope
    return [
        (instances, "gen", "instances.gen", None),
        (instances, "serialize_instance", "instances.serialize", None),
        (instances, "parse_instance", "instances.parse", None),
        (instances.InstanceFile, "build", "instances.build", None),
        (setfn, "gradient", "setfn.gradient", _note_point),
        (setfn, "multilinear_batch", "setfn.multilinear_batch", _count_rows),
        (dgbox, "multilinear_batch", "setfn.multilinear_batch", _count_rows),
        (cgreedy, "multilinear", "setfn.multilinear", None),
        *((cls, "value_batch", "setfn.value_batch", _count_masks)
          for cls in (setfn.DirectedCut, setfn.Coverage, setfn.ExplicitTable)),
        (P.Polytope, "linear_maximize", "polytope.linear_maximize", None),
        (P.Polytope, "contains_point", "polytope.contains_point", None),
        *((cls, "contains_mask_batch", "polytope.contains_mask_batch", None)
          for cls in (P.CardinalityPolytope, P.PartitionMatroidPolytope,
                      P.KnapsackPolytope)),
        (cgreedy, "double_greedy_box", "dgbox.double_greedy_box", _count_coords),
        (cgreedy, "solve", "cgreedy.solve", None),
        (verify, "brute_force_opt", "verify.brute_force_opt", None),
    ]


class Tracer:
    def __init__(self):
        self.ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_instance = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.points: set[bytes] = set()   # gradient points of this instance
        self.distinct_points = 0          # ... summed over earlier instances
        self.paused = False
        self.missing: list[str] = []

    def begin_instance(self) -> None:
        self.distinct_points += len(self.points)
        self.points.clear()
        self.current_instance += 1

    @contextmanager
    def pause(self):
        """Calls made inside are neither timed nor counted (output checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                if attr not in vars(owner):
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counter))
            if self.missing:
                print(f"trace: not found, left untraced: {self.missing}",
                      file=sys.stderr)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _wrap(self, fn, name, counter):
        nid = self.ids.setdefault(name, len(self.ids))
        layer = name.split(".")[0]
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(tr, args, kwargs)
            sid = len(tr.start)
            tr.name_of.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.instance.append(tr.current_instance)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.errors[layer] += 1
                raise
            finally:
                tr.end[sid] = time.perf_counter()
                tr.start[sid] = t0
                tr.stack.pop()
        return traced

    @property
    def spans(self) -> int:
        return len(self.start)

    def distinct_gradient_points(self) -> int:
        return self.distinct_points + len(self.points)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (summed duration) and self_s."""
        name_of = np.asarray(self.name_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        k = len(self.ids)
        calls = np.bincount(name_of, minlength=k)
        busy = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                       "self_s": float(own[i])}
                for name, i in self.ids.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.ids, key=self.ids.get)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(names), name=np.asarray(self.name_of),
                     parent=np.asarray(self.parent),
                     instance=np.asarray(self.instance),
                     start=np.asarray(self.start), end=np.asarray(self.end))
