"""Spans around the program's public functions, wrapped from outside.

A span is (name, start, end, parent) and is kept in memory in flat arrays.
Self time is a span's duration minus the time its child spans cover.  Counts
taken at the same boundaries (B&B nodes, model sizes) go to `counts`.

Functions are replaced in every dagpart module that holds them by name, so a
call through `dagpart.multilevel.branch_and_bound` is seen as well as one
through `dagpart.exact.branch_and_bound`; `Dag` methods are wrapped on the
class.  `attach` and `detach` swap the wrappers in and out, so traced and
untraced calls can alternate in one process.  A function that no longer
exists is reported as absent.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.enabled = False
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    def _name(self, name: str) -> int:
        idx = self._name_id.get(name)
        if idx is None:
            idx = self._name_id[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_of.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.start)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for idx, name_idx in enumerate(self.name_of):
            entry = out[self.names[name_idx]]
            entry[0] += 1
            entry[1] += self.end[idx] - self.start[idx] - child[idx]
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    # -- installing wrappers -------------------------------------------------

    def wrap_function(self, module_name: str, attr: str, make_wrapper) -> None:
        """Replace the function module_name.attr in every dagpart module that
        holds it; make_wrapper(original) returns the replacement."""
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name == "dagpart" or name.startswith("dagpart."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def wrap_method(self, cls, attr: str, span_name: str) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.absent.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        self._patches.append((cls, attr, original, self.simple(span_name)(original)))

    def attach(self) -> None:
        """Put the wrappers in place and record spans."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.enabled = True

    def detach(self) -> None:
        """Restore the program's own functions."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.enabled = False

    def simple(self, span_name: str):
        """make_wrapper for a plain span around a function."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.span(span_name, original, *args, **kwargs)
            wrapper.__wrapped__ = original
            return wrapper
        return make
