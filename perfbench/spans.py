"""Span recorder that wraps a package's public functions from outside.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent).  Spans stay in flat arrays in memory and
are reduced to per-layer numbers when the run ends.  A layer's self time is
its span's duration minus the time its direct child spans cover.

The package's modules call each other through module attributes
(``gd.enumerate_branches``, ``bd.e_xl_bound``, ...), so replacing those
attributes reaches calls made inside the package too.  Calls made inside
process-pool workers are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[int, int] = {}  # span index -> len(result), where asked for
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.active = True

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (a phase)."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def paused(self):
        """Run a block untraced (wrapped functions call straight through)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, module, attr: str, sized: bool = False) -> None:
        fn = getattr(module, attr)
        name_id = self._name_id(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if sized:
                self.sizes[i] = len(result)
            return result

        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def wrap_public(self, module, sized=()) -> None:
        """Wrap every public function the module defines itself."""
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                self.wrap(module, attr, sized=attr in sized)

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def reduce(self) -> "Spans":
        return Spans(self)


class Spans:
    """Numpy view of a finished trace: durations, self times and phases."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        if np.any(end < start):
            raise RuntimeError("trace holds a span that never closed")
        self.duration = end - start
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.name)
        )
        self.self_time = self.duration - child_time
        self.sizes = tracer.sizes
        # a parent always precedes its children, so one forward pass finds roots
        root = np.arange(len(self.name), dtype=np.int32)
        for i in np.nonzero(has_parent)[0]:
            root[i] = root[self.parent[i]]
        self.root = root

    def select(self, name: str, phases: tuple[str, ...] = ()) -> np.ndarray:
        """Indices of spans called ``name`` whose root span is one of ``phases``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        mask = self.name == self.names.index(name)
        if phases:
            ids = [self.names.index(p) for p in phases if p in self.names]
            mask &= np.isin(self.name[self.root], ids)
        return np.nonzero(mask)[0]

    def select_prefix(self, prefix: str, phases: tuple[str, ...] = ()) -> np.ndarray:
        found = [self.select(n, phases) for n in self.names if n.startswith(prefix)]
        return np.sort(np.concatenate(found)) if found else np.zeros(0, dtype=np.int64)

    def descendants_of(self, idx: np.ndarray, ancestors: np.ndarray) -> np.ndarray:
        """The members of ``idx`` that have a member of ``ancestors`` above them."""
        wanted = set(int(a) for a in ancestors)
        keep = []
        for i in idx:
            p = self.parent[i]
            while p >= 0 and p not in wanted:
                p = self.parent[p]
            if p >= 0:
                keep.append(i)
        return np.array(keep, dtype=np.int64)

    def self_p50_us(self, idx: np.ndarray) -> float:
        return float(np.median(self.self_time[idx]) * 1e6) if len(idx) else 0.0

    def self_total_s(self, idx: np.ndarray) -> float:
        return float(np.sum(self.self_time[idx]))
