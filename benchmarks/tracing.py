"""Spans around library calls, recorded from outside the library.

A wrap replaces a module attribute for the duration of a traced pass, so it
sees exactly the calls that look the name up on that module at call time.
qderiv modules call their collaborators through module globals, so wrapping
``survey.from_table`` catches the tables certificate building validates
without any change to the library.

Spans stay in memory (one tuple each) and are written once, at exit.
"""

from __future__ import annotations

import contextlib
import gzip
import json
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator

ROOT_SPAN = "bench.op"
STOLEN_SPAN = "bench.speed_probe"
_END = object()


class _Open:
    __slots__ = ("sid", "name", "parent", "op", "start", "rows", "stolen")

    def __init__(self, sid: int, name: str, parent: int | None, op: int):
        self.sid, self.name, self.parent, self.op = sid, name, parent, op
        self.rows: list[RowTiming] = []
        self.stolen = 0.0


class RowTiming:
    """Time spent inside one row iterator, owned by the span that created it.

    The iterator is pulled in small steps interleaved with its owner's own
    work, so it becomes one child span whose interval is an envelope (first
    pull to last pull) and whose ``busy`` time is the sum of the pulls.
    """

    __slots__ = ("name", "first", "last", "busy", "count", "order_start")

    def __init__(self, name: str):
        self.name = name
        self.first = self.last = None
        self.busy = 0.0
        self.count = 0
        self.order_start: dict[int, int] = {}  # order -> stream position of index 0


class Tracer:
    """Wraps library functions and keeps closed spans and counters in memory.

    A span is (id, name, start, end, parent id, op id, busy); busy is None
    except for row-iterator spans and the time the speed probe took inside a
    span, which are envelopes over their parent's interval.  Every span of one pass or request shares
    its op id.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, float] = {}
        self._stack: list[_Open] = []
        self._wraps: list[tuple[ModuleType, str, Callable]] = []
        self._op = 0

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def steal(self, seconds: float) -> None:
        """Charge time the benchmark itself spent inside the innermost open span."""
        if self._stack:
            self._stack[-1].stolen += seconds

    # -- wraps -------------------------------------------------------------

    def wrap(
        self,
        module: ModuleType,
        attr: str,
        name: str,
        after: Callable[["Tracer", _Open, object], None] | None = None,
    ) -> None:
        """Record a span named ``name`` per call of ``module.attr``.

        ``after(tracer, span, result)`` runs once the span is closed, so its
        cost lands in the caller's self time, not in the span's.
        """

        def make(real: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                span = self._open(name)
                try:
                    result = real(*args, **kwargs)
                finally:
                    self._close(span)
                if after is not None:
                    after(self, span, result)
                return result

            return wrapper

        self._wraps.append((module, attr, make))

    def wrap_rows(self, module: ModuleType, attr: str, name: str) -> None:
        """Time every pull from the (order, index, rows) iterator ``module.attr`` returns."""

        def make(real: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                timing = RowTiming(name)
                self._stack[-1].rows.append(timing)
                return _timed_rows(real(*args, **kwargs), timing)

            return wrapper

        self._wraps.append((module, attr, make))

    @contextlib.contextmanager
    def patched(self) -> Iterator[None]:
        """Install every wrap; restore the real functions on exit."""
        saved = []
        try:
            for module, attr, make in self._wraps:
                real = getattr(module, attr)
                saved.append((module, attr, real))
                setattr(module, attr, make(real))
            yield
        finally:
            for module, attr, real in reversed(saved):
                setattr(module, attr, real)

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        """The root span of one pass or request; wrapped calls need one open."""
        self._op += 1
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> _Open:
        parent = self._stack[-1].sid if self._stack else None
        span = _Open(len(self.spans), name, parent, self._op)
        self.spans.append(None)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: _Open) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[span.sid] = (span.sid, span.name, span.start, end, span.parent, span.op, None)
        for t in span.rows:
            if t.first is not None:
                self.spans.append(
                    (len(self.spans), t.name, t.first, t.last, span.sid, span.op, t.busy)
                )
        if span.stolen:
            self.spans.append(
                (len(self.spans), STOLEN_SPAN, span.start, end, span.sid, span.op, span.stolen)
            )

    @property
    def ops(self) -> int:
        """Number of ops opened so far; op ids run from 1."""
        return self._op

    def self_times(self, scale: dict[int, float]) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time, times its op's ``scale``, and call count per span name.

        Self time is a span's busy time minus its children's; children of
        one span never overlap, because the program is single-threaded.
        """
        busy = [s[6] if s[6] is not None else s[3] - s[2] for s in self.spans]
        own = list(busy)
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= busy[s[0]]
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s, t in zip(self.spans, own):
            totals[s[1]] = totals.get(s[1], 0.0) + t * scale[s[5]]
            calls[s[1]] = calls.get(s[1], 0) + 1
        return totals, calls

    def write(self, path: Path) -> None:
        """Write spans as gzipped JSON lines [id, name, start, end, parent, op, busy]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def unit_costs(n: int = 10000, repeats: int = 5) -> tuple[float, float]:
    """Seconds that one wrapped call and one timed row pull add, best of ``repeats``.

    Timed on a no-op function and a generator of ``n`` rows, wrapped and
    bare, so it is what the wrappers cost with their data in cache.
    """
    mod = ModuleType("noop")
    mod.call = lambda: None
    mod.rows = lambda: ((0, i, None) for i in range(n))

    def calls() -> None:
        for _ in range(n):
            mod.call()

    def pulls() -> None:
        for _ in mod.rows():
            pass

    def best(fn: Callable[[], None]) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return min(times)

    bare_call, bare_rows = best(calls), best(pulls)
    tracer = Tracer()
    tracer.wrap(mod, "call", "noop.call")
    tracer.wrap_rows(mod, "rows", "noop.rows")
    with tracer.patched(), tracer.op():
        call, rows = best(calls), best(pulls)
    return (call - bare_call) / n, (rows - bare_rows) / n


def _timed_rows(rows: Iterator[tuple], timing: RowTiming) -> Iterator[tuple]:
    pos = 0
    while True:
        t0 = perf_counter()
        item = next(rows, _END)
        t1 = perf_counter()
        timing.busy += t1 - t0
        if timing.first is None:
            timing.first = t0
        timing.last = t1
        if item is _END:
            return
        timing.count = pos + 1
        timing.order_start.setdefault(item[0], pos - item[1])
        pos += 1
        yield item
