"""Span recording around the simulator's layer boundaries, from outside.

The benchmark never edits the program under test.  Instead, for a traced
run it replaces a handful of public functions and methods with thin
wrappers that open a span (layer, name, start, end, parent) around each
call, and restores the originals afterwards.  Functions are replaced in
every loaded ``repro`` module that holds a reference to them, so callers
that did ``from .x import f`` see the wrapper too; methods are replaced
on their class, so bound methods taken after installation (the compiled
kernels bind ``sim.replay_controller.on_backedge`` at kernel entry) see
it as well.

Pool workers are forked from the traced process and inherit the
wrappers.  A worker notices its new pid at its first span, drops the
spans it inherited, and appends its own to ``<spill_dir>/spans-<pid>.jsonl``
each time its outermost span closes; :func:`load_spilled` reads them
back so the parent can merge every process's spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

__all__ = [
    "Span",
    "SpanRecorder",
    "install",
    "layer_totals",
    "load_spilled",
    "outermost",
    "restore",
    "self_times",
    "tail_percentile",
]

_MISSING = object()


class Span:
    """One call into a layer: ``[start, end)`` in ``perf_counter`` seconds."""

    __slots__ = ("id", "parent", "layer", "name", "start", "end", "attrs")

    def __init__(self, id, parent, layer, name, start, end=None, attrs=None):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


class SpanRecorder:
    """In-memory span store for one process (and a spill file per worker).

    ``counters`` is an optional zero-argument callable returning a dict
    of cumulative numbers (the codegen statistics); a worker reports its
    delta since the fork next to its spans.
    """

    def __init__(self, spill_dir: str | None = None, counters=None):
        self.spill_dir = spill_dir
        self.counters = counters
        self.owner = os.getpid()
        self._pid = self.owner
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pending: list[Span] = []
        self._baseline = counters() if counters is not None else None

    def open(self, layer: str, name: str) -> Span:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: the inherited spans and open
            # stack belong to the parent, which reports them itself.
            self._pid = pid
            self.spans = []
            self._stack = []
            self._pending = []
            if self.counters is not None:
                self._baseline = self.counters()
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._pid != self.owner:
            self._pending.append(span)
            if not self._stack:
                self._spill()

    def counter_delta(self) -> dict:
        if self.counters is None:
            return {}
        now = self.counters()
        return {key: now[key] - self._baseline.get(key, 0) for key in now}

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a") as handle:
            for span in self._pending:
                handle.write(json.dumps(span.to_dict()) + "\n")
            handle.write(json.dumps({"counters": self.counter_delta()}) + "\n")
        self._pending = []


def load_spilled(spill_dir: str) -> list[tuple[list[Span], dict]]:
    """Every worker's ``(spans, counter delta)`` written under ``spill_dir``."""
    processes = []
    for entry in sorted(os.listdir(spill_dir)):
        if not entry.startswith("spans-"):
            continue
        spans: list[Span] = []
        counters: dict = {}
        with open(os.path.join(spill_dir, entry)) as handle:
            for line in handle:
                record = json.loads(line)
                if "counters" in record:
                    counters = record["counters"]
                else:
                    spans.append(Span.from_dict(record))
        processes.append((spans, counters))
    return processes


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------
def _wrap(recorder: SpanRecorder, layer: str, fn, name=None, describe=None):
    """``fn`` inside a span; ``name(args)`` labels it, ``describe(args,
    result)`` attaches counts once the call returns."""
    label = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(layer, name(args) if name is not None else label)
        try:
            result = fn(*args, **kwargs)
            if describe is not None:
                span.attrs = describe(args, result)
            return result
        finally:
            recorder.close(span)

    return wrapper


def install(recorder: SpanRecorder, targets) -> list[tuple]:
    """Wrap every target; returns the patch list :func:`restore` undoes.

    A target is ``(owner, attribute, layer, name, describe)``.  A class
    owner is patched in place.  A module owner's function is patched in
    every loaded ``repro`` module that binds the same object.
    """
    patches = []
    for owner, attr, layer, name, describe in targets:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            wrapper = _wrap(recorder, layer, original, name, describe)
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(recorder, layer, original, name, describe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    return patches


def restore(patches: list[tuple]) -> None:
    """Put back every original :func:`install` replaced."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def outermost(spans: list[Span]) -> list[Span]:
    """The spans with no ancestor of their own layer (a span nested in a
    span of the same layer is already covered by the outer one)."""
    by_id = {span.id: span for span in spans}
    kept = []
    for span in spans:
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.layer != span.layer:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            kept.append(span)
    return kept


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Time inside each layer, each instant counted once per layer."""
    totals: dict[str, float] = {}
    for span in outermost(spans):
        totals[span.layer] = totals.get(span.layer, 0.0) + span.end - span.start
    return totals


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has at
    least ``beyond`` samples above it.

    With ``n`` sorted samples the value at 0-based rank ``n - beyond - 1``
    has exactly ``beyond`` samples after it; its percentile is the share
    of samples at or below it.  Fewer than ``beyond + 1`` samples have no
    such percentile: ``ValueError``.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    rank = n - beyond - 1
    return 100.0 * (rank + 1) / n, sorted(samples)[rank]
