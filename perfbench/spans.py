"""In-memory span recording around flowgnn's public functions.

A Recorder keeps one list of spans per round. Each span is
[name, start, end, parent, info]: start and end come from
time.perf_counter, parent is the index of the enclosing span in the same
list (-1 at the top) and info is an optional value taken from the call's
arguments or result. Spans are created by wrappers that replace a function
everywhere flowgnn refers to it, so calls made inside the package (for
instance the nn ops that flowgnn.model imports by name) are seen too.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter


class Recorder:
    def __init__(self):
        self.active = False
        # set while a round's evaluated models are kept for the checks
        self.capture = False
        self.rounds: list[list[list]] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def new_round(self) -> None:
        self.spans = []
        self.stack = []
        self.rounds.append(self.spans)

    @contextmanager
    def span(self, name: str, info=None):
        """A span opened by the benchmark itself (stages, counters)."""
        if not self.active:
            yield None
            return
        spans = self.spans
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, info]
        self.stack.append(len(spans))
        spans.append(record)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def wrapper(self, name, fn, info_fn=None, name_fn=None):
        """A function that records a span around every call of fn.

        info_fn(args, kwargs, result) gives the span's info; name_fn(args,
        kwargs) chooses the span name per call when one function serves
        two layers.
        """
        rec = self

        # span() inlined: this runs around every nn op of a traced round
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            spans = rec.spans
            stack = rec.stack
            record = [name if name_fn is None else name_fn(args, kwargs), 0.0, 0.0,
                      stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info_fn is not None:
                record[4] = info_fn(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, fn, name, info_fn=None, name_fn=None) -> None:
        """Replace fn in every flowgnn module namespace that holds it."""
        traced = self.wrapper(name, fn, info_fn, name_fn)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "flowgnn" or mod_name.startswith("flowgnn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)
                    found = True
        if not found:
            raise LookupError(f"{name}: function not found in any flowgnn module")

    def wrap_method(self, cls, attr: str, name, info_fn=None, name_fn=None) -> None:
        self._set(cls, attr, self.wrapper(name, vars(cls)[attr], info_fn, name_fn))

    def wrap_result(self, module, attr: str, name) -> None:
        """module.attr returns a closure; record a span around each call of it."""
        factory = getattr(module, attr)
        rec = self

        def make(*args, **kwargs):
            return rec.wrapper(name, factory(*args, **kwargs))

        self._set(module, attr, make)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# -- derived views -------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]


def enclosing(spans: list[list], scope_names: frozenset) -> list[frozenset]:
    """For each span, the scope names among itself and its ancestors."""
    out: list[frozenset] = []
    empty = frozenset()
    for rec in spans:
        inherited = out[rec[3]] if rec[3] >= 0 else empty
        out.append(inherited | {rec[0]} if rec[0] in scope_names else inherited)
    return out


def totals_by_name(spans: list[list], selfs: list[float]) -> dict[str, tuple[int, float]]:
    acc: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for rec, s in zip(spans, selfs):
        entry = acc[rec[0]]
        entry[0] += 1
        entry[1] += s
    return {k: (v[0], v[1]) for k, v in acc.items()}
