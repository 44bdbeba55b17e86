"""Spans and counters recorded around the program's public functions.

A :class:`Tracer` replaces module attributes with wrappers for as long as
it is installed, then puts the originals back.  Each function is wrapped
under the name its caller looks it up by (``pebtree.query.z_decompose``,
not ``pebtree.zcurve.z_decompose``), because a module that imported a
name keeps its own binding.

A span is ``(name, start, end, parent, query id)``; spans stay in memory
until :meth:`Tracer.write_spans`.  Self time is a span's duration minus the
time its child spans cover.  Functions called too often for a span to be
cheap get a counter only.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.qid: int = -1  # query id stamped on spans; -1 outside queries
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, perf_counter()

    def _close(self, name: str, idx: int, parent: int, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.qid)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def _spanned(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            counts[name + ".calls"] += 1
            if count is not None:
                counts[name + ".items"] += count(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, owner: object, attr: str, name: str, span: bool = True, count: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span (or a count) as ``name``."""
        original = owner.__dict__[attr]
        wrapper = self._spanned(name, original, count) if span else self._counted(name, original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def counting_generator(self, name: str, gen_fn: Callable) -> Callable:
        """``gen_fn`` with every yielded item counted as ``name``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_time[name] += (t1 - t0) - child[idx]
        return total, self_time

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, qid in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, qid]) + "\n")
