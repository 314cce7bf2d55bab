"""In-memory spans recorded around fockops calls, attached from outside.

``attached`` replaces module and class attributes of the library with
wrappers that open a span around each call, and puts the originals back
on exit.  The solvers, the executor and the observables reach the wrapped
functions through module attributes, so the wrappers see every call they
make.  Gather-cache lookups are too frequent for a span each: they are
counted on the enclosing span, and only cache misses (gather builds) get a
span.

Spans are kept in memory; the caller writes them out when the run ends.
Worker threads of the executor have no span of their own open, so their
spans and counts hang under the span open in the thread that started the
operation.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from fockops import executor, fockspace, hamiltonian, kernel, mixtures, observables, solvers


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "counts")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


class Recorder:
    """Collects spans and per-span counters for numbered operations."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None
        self._op_stack = None
        self._built: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        if self._op_stack:
            return self._op_stack[-1]
        return None

    @contextmanager
    def span(self, name: str):
        parent = self.current()
        sp = Span(next(self._ids), name, time.perf_counter(),
                  parent.sid if parent is not None else None, self._op)
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    @contextmanager
    def operation(self, op_id):
        """Root span ``op`` for one operation; every span inside carries ``op_id``."""
        self._op = op_id
        self._op_stack = self._stack()
        self._built = set()
        try:
            with self.span("op") as root:
                yield root
        finally:
            self._op = None
            self._op_stack = None

    def count_gather(self, space, key, built: bool, rows: int) -> None:
        """Count one gather-cache lookup on the enclosing span.

        A build of a gather this operation already built for an equal space
        counts as ``duplicate_builds``, so ``gather_builds`` counts distinct
        gathers and repeats exactly.  Duplicates come from executor threads
        that miss the same key at once, or that each build the space's
        tables and then fill different caches.
        """
        sp = self.current()
        if sp is None:
            return
        c = sp.counts
        with self._lock:
            c["gather_calls"] = c.get("gather_calls", 0) + 1
            c["act_rows"] = c.get("act_rows", 0) + rows
            if built:
                kind = "duplicate_builds" if (space, key) in self._built else "gather_builds"
                self._built.add((space, key))
                c[kind] = c.get(kind, 0) + 1

    def of_op(self, op_id) -> list[Span]:
        return [sp for sp in self.spans if sp.op == op_id]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover.

    Children running concurrently on worker threads overlap; their union
    is subtracted once.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.sid: sp.duration - covered(children[sp.sid], sp.start, sp.end) for sp in spans}


# -- attaching to the library ------------------------------------------------

# (owner, attribute) pairs wrapped in a plain span named "<module>.<function>"
_SPANNED = [
    (hamiltonian, "load_integrals"),
    (fockspace, "load_state"),
    (fockspace, "save_state"),
    (kernel, "apply_hamiltonian"),
    (mixtures, "apply_mixture_hamiltonian"),
    (executor, "parallel_apply"),
    (observables, "one_body_density"),
    (observables, "two_body_density"),
    (observables, "mixture_densities"),
    (observables, "site_densities"),
    (observables, "energy"),
    (solvers, "ground_state"),
    (solvers, "propagate"),
    (solvers, "write_series_csv"),
]


def _spanned(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrappers(rec: Recorder) -> list:
    """(owner, attribute, wrapper) for every library attribute the recorder replaces."""
    swaps = [
        (owner, attr, _spanned(rec, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", getattr(owner, attr)))
        for owner, attr in _SPANNED
    ]
    tables_init = fockspace.SpaceTables.__init__

    def traced_tables_init(self, space):
        with rec.span("fockspace.tables"):
            tables_init(self, space)

    cached_gather = fockspace.SpaceTables.cached_gather

    def traced_cached_gather(self, key, build):
        built = False

        def traced_build():
            nonlocal built
            built = True
            with rec.span("kernel.gather_build"):
                return build()

        val = cached_gather(self, key, traced_build)
        rec.count_gather(self.space, key, built, val[3].size)
        return val

    swaps.append((fockspace.SpaceTables, "__init__", traced_tables_init))
    swaps.append((fockspace.SpaceTables, "cached_gather", traced_cached_gather))
    return swaps


@contextmanager
def attached(rec: Recorder):
    """Swap the span-recording wrappers into the library; restore the originals on exit."""
    swaps = _wrappers(rec)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    for owner, attr, wrapper in swaps:
        setattr(owner, attr, wrapper)
    try:
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
