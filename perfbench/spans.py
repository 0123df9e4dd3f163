"""In-memory span recording and wrapper installation for the benchmark.

A span is (name, start, end, parent).  Spans are appended to flat arrays so a
traced full-density pass (1.5 million spans) stays near 40 MB, and
self times are computed once the run has ended.  Self time is a span's
duration minus the durations of its direct children.

Wrappers are installed on every namespace that holds a wrapped object: the
package modules import several names from each other (`run_programs`,
`resolve_slot`, `generate_family`, the protocol drivers), so patching only
the defining module would miss calls made through the other copies.  Every
patch is undone by `Patches.restore`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """Records nested spans in call order; parent -1 marks a root span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def inside(self, nids: frozenset) -> bool:
        """True when an open span has one of the given names."""
        name_of = self.name_of
        return any(name_of[i] in nids for i in self.stack[1:])

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total duration and self time."""
        selfs = self_times(self.parent, self.start, self.end)
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return out


def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(parent))]


def reconcile(tracer: Tracer, name: str) -> Tuple[int, float]:
    """Check every span called `name` against its direct children.

    Children must lie inside the parent's interval, so self time plus the
    children's durations equals the parent's duration with self time >= 0.
    Returns (spans checked, worst violation in seconds); a violation is a
    child sticking out of its parent or a negative self time."""
    if name not in tracer.names:
        return 0, 0.0
    nid = tracer.names.index(name)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    worst = 0.0
    child_sum: Dict[int, float] = {}
    for i, p in enumerate(parent):
        if p >= 0 and tracer.name_of[p] == nid:
            child_sum[p] = child_sum.get(p, 0.0) + end[i] - start[i]
            worst = max(worst, start[p] - start[i], end[i] - end[p])
    checked = 0
    for i, n in enumerate(tracer.name_of):
        if n == nid:
            checked += 1
            worst = max(worst, child_sum.get(i, 0.0) - (end[i] - start[i]))
    return checked, worst


class StepProxy:
    """Stands in for a program generator and times each resumption."""

    __slots__ = ("gen", "tracer", "nid")

    def __init__(self, gen, tracer: Tracer, nid: int):
        self.gen = gen
        self.tracer = tracer
        self.nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        idx = self.tracer.open(self.nid)
        try:
            return next(self.gen)
        finally:
            self.tracer.close(idx)

    def send(self, value):
        idx = self.tracer.open(self.nid)
        try:
            return self.gen.send(value)
        finally:
            self.tracer.close(idx)


PACKAGE = "radioleader"


class Patches:
    """Attribute replacements on the package's modules and classes, undone
    in reverse order by restore()."""

    def __init__(self):
        self.saved: List[Tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def function(self, home, attr: str, make: Callable) -> int:
        """Replace home.attr with make(original) in every package module
        that holds the same object.  Returns how many copies were patched."""
        original = getattr(home, attr)
        wrapper = make(original)
        copies = 0
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    copies += 1
        return copies

    def method(self, cls, attr: str, make: Callable) -> None:
        original = vars(cls)[attr]
        self.saved.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def span_wrapper(tracer: Tracer, name: str,
                 after: Optional[Callable] = None) -> Callable:
    """Factory for Patches: time each call as a span called `name`, then
    let `after(args, result)` update counters outside the span."""
    nid = tracer.name_id(name)

    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced
    return make


def counting_wrapper(tracer: Tracer, counter: str) -> Callable:
    """Factory for Patches: count calls without opening a span."""
    def make(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)
        return counted
    return make


def step_wrapper(tracer: Tracer, name: str, replay_scopes: frozenset) -> Callable:
    """Factory for Patches on a program class's `run`: hand back a
    StepProxy so every resumption of the program is a span, and count the
    programs started inside a lowerbound checker as replays."""
    nid = tracer.name_id(name)

    def make(run):
        @functools.wraps(run)
        def traced_run(self):
            if tracer.inside(replay_scopes):
                tracer.counters["lowerbound.program_replays"] += 1
            return StepProxy(run(self), tracer, nid)
        return traced_run
    return make
