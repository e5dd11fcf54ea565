"""Shared pieces of the benchmark: spans, operation accounting and timing
summaries.

Spans are recorded only around calls the benchmark itself makes into the
library; the library is not instrumented.  With tracing off, ``Tracer.call``
is a plain call.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records one span (name, start, end, parent) per traced call, in
    memory; ``enabled`` may be switched between rounds."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        ident = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(ident, name, time.perf_counter(), math.nan, parent))
        self._stack.append(ident)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[ident].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; with tracing on, inside a span called ``name``
        (``<module>.<function>``)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and total seconds per span name."""
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            n, secs = out.get(s.name, (0, 0.0))
            out[s.name] = (n + 1, secs + s.end - s.start)
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per module: each span's duration minus the part its
        child spans cover, summed by the name's first component."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            module = s.name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (s.end - s.start) - child[s.ident]
        return out


@dataclass
class Tally:
    """Operations attempted and failed in one round.  A failed operation is
    one that raised; it is counted and its output is absent (``None``)."""

    attempted: int = 0
    failed: int = 0

    def attempt(self, fn, weight: int = 1):
        """Run one call that performs ``weight`` operations."""
        self.attempted += weight
        try:
            return fn()
        except Exception as exc:  # an operation's failure is data, not a crash
            self.failed += weight
            print(f"perfbench: operation failed: {exc!r}", file=sys.stderr)
            return None


def summarize(samples) -> dict:
    """Median and sample count; with at least forty samples also the
    highest whole percentile that has at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) >= 40:
        q = math.floor(100 * (1 - 10 / len(xs)))
        out[f"p{q}"] = statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
    return out


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    res = fn(*args, **kwargs)
    return res, time.perf_counter() - t0


def rel_err(got, ref):
    """Elementwise ``|got - ref| / |ref|`` as a float maximum (0 where both
    are zero)."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    diff = np.abs(got - ref)
    scale = np.abs(ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(diff == 0.0, 0.0, diff / scale)
    return float(np.max(r)) if r.size else 0.0
