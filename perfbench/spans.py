"""In-memory span recording around calls into weaksgd, from outside the package.

A :class:`Tracer` replaces a function at the attribute where the package
looks it up (a module global such as ``learner.kernel_matrix`` or a class
attribute such as ``QueryOracle.halfspace_query``) with a wrapper that
records one span per call: name, start, end, parent span and trial id.
Spans are kept in flat arrays so that a per-step wrapper stays cheap, and
are written out once, when the run ends.

A trial ends when its SGD driver returns; every span opened since the
previous driver returned (data generation, parsing, the driver and its
children) shares that trial's id.
"""

from __future__ import annotations

import re
import time
from array import array

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not isinstance(name, str) or len(name) > 64 or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    if not name[0].isalnum():
        raise ValueError(f"metric name {name!r} must start with a letter or digit")
    return name


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its child spans cover.

    Children may nest inside each other or overlap; each instant is
    subtracted at most once, and only inside the parent's interval.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)


class Tracer:
    """Records spans from wrappers it installs; restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.ok = array("b")
        self.notes: dict[int, dict] = {}
        self.counts: dict[str, int] = {}
        self.trial_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr: str, make):
        if attr not in vars(owner):
            raise LookupError(f"lookup site {getattr(owner, '__name__', owner)}.{attr} is gone")
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, owner, attr: str, name: str, note=None, ends_trial: bool = False):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``note(args, kwargs, result)`` may return a dict kept with the span.
        """
        self._replace(owner, attr, lambda fn: self._wrap(fn, name, note, ends_trial))

    def count(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` under ``name`` without a span."""
        counts = self.counts
        counts.setdefault(name, 0)

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        self._replace(owner, attr, make)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, note, ends_trial):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, trials, oks = (
            self.name, self.start, self.end, self.parent, self.trial, self.ok)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            if not stack:
                tracer.trial_id += 1
            trials.append(tracer.trial_id)
            oks.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                oks[idx] = 1
            finally:
                ends[idx] = clock()
                stack.pop()
                if ends_trial:
                    tracer.trial_id += 1
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    # -- reading spans back --------------------------------------------------

    def mark(self) -> int:
        """Position to pass to :meth:`view` for the spans recorded from now on."""
        return len(self.name)

    def view(self, first: int = 0) -> "SpanView":
        """The spans recorded since position ``first``."""
        return SpanView(self, first, len(self.name))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,trial,ok\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.trial[i]},{self.ok[i]}\n")


class SpanView:
    """Aggregates over the spans ``first <= i < last`` of a tracer."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        self.t = tracer
        self.first, self.last = first, last
        self.children: dict[int, list[int]] = {}
        self._by_name: dict[int, list[int]] = {}
        for i in range(first, last):
            p = tracer.parent[i]
            if p >= first:
                self.children.setdefault(p, []).append(i)
            self._by_name.setdefault(tracer.name[i], []).append(i)

    def of(self, name: str) -> list[int]:
        return self._by_name.get(self.t._name_ids.get(name, -1), [])

    def duration(self, i: int) -> float:
        return self.t.end[i] - self.t.start[i]

    def self_time(self, i: int) -> float:
        t = self.t
        return self_time(t.start[i], t.end[i],
                         [(t.start[c], t.end[c]) for c in self.children.get(i, ())])

    def total(self, name: str) -> float:
        return sum((self.duration(i) for i in self.of(name)), 0.0)

    def total_self(self, name: str) -> float:
        return sum((self.self_time(i) for i in self.of(name)), 0.0)

    def ok_children(self, i: int, name: str) -> int:
        t = self.t
        nid = t._name_ids.get(name)
        return sum(1 for c in self.children.get(i, ()) if t.name[c] == nid and t.ok[c])
