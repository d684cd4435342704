"""In-memory span recorder and call-site patching for the traced run.

Spans are recorded around calls into the program's public functions,
never inside the program: :class:`Patcher` swaps a module or class
attribute for a timing wrapper and restores it afterwards.  Each span
keeps its name, start, end, parent span and a trace id (one per
campaign or job), all in memory; :func:`self_times` derives every
span's self time afterwards.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float | None
    parent: str | None
    trace: str | None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


@dataclass
class SpanRecorder:
    """Collects spans and counters of one process (thread-safe).

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread when it started.
    """

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def __post_init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace: str | None) -> None:
        """Trace id given to spans this thread opens from now on."""
        self._local.trace = trace

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._seq += 1
            span = Span(
                id=f"{os.getpid()}:{self._seq}",
                name=name,
                start=self.clock(),
                end=None,
                parent=parent.id if parent else None,
                trace=getattr(self._local, "trace", None)
                or (parent.trace if parent else None),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def reset(self) -> None:
        """Forget everything (used in a freshly forked child).

        Takes no lock: another parent thread may have held the inherited
        one at fork time, and in the child it would never be released.
        """
        self._lock = threading.Lock()
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()

    def drain(self) -> dict[str, Any]:
        """Hand over finished spans and counters as plain data, and clear them."""
        with self._lock:
            done = [s for s in self.spans if s.end is not None]
            self.spans = [s for s in self.spans if s.end is None]
            counters, self.counters = dict(self.counters), defaultdict(float)
        return {"spans": [asdict(s) for s in done], "counters": counters}


def merge(dumps: Iterable[Mapping[str, Any]]) -> tuple[list[Span], dict[str, float]]:
    """Combine drained dumps (from several processes) into spans + counters."""
    spans: list[Span] = []
    counters: dict[str, float] = defaultdict(float)
    for dump in dumps:
        spans.extend(Span(**s) for s in dump["spans"])
        for k, v in dump["counters"].items():
            counters[k] += v
    return spans, dict(counters)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Span id -> its duration minus the part its child spans cover."""
    spans = [s for s in spans if s.end is not None]
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def totals_by_name(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Span name -> ``{"self_s", "total_s", "calls"}`` summed over spans."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    for s in spans:
        if s.end is None:
            continue
        row = out[s.name]
        row["self_s"] += own[s.id]
        row["total_s"] += s.duration
        row["calls"] += 1
    return dict(out)


CountFn = Callable[[tuple, dict, Any], Mapping[str, float]]


class Patcher:
    """Replace attributes with span-recording wrappers; undo on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        counts: CountFn | None = None,
        trace_of: Callable[[tuple, dict], str | None] | None = None,
        after: Callable[[], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``trace_of(args, kwargs)`` names the trace the call belongs to;
        ``counts(args, kwargs, result)`` adds counters after each call;
        ``after()`` runs once the span has closed.
        """
        rec = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if trace_of is not None:
                    rec.set_trace(trace_of(args, kwargs))
                span = rec.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.close(span)
                    if after is not None:
                        after()
                if counts is not None:
                    for key, amount in counts(args, kwargs, result).items():
                        rec.count(key, amount)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def count(self, owner: Any, attr: str, counts: CountFn) -> None:
        """Only add counters after each call of ``owner.attr`` (no span)."""
        rec = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                for key, amount in counts(args, kwargs, result).items():
                    rec.count(key, amount)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def timed(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrap a plain callable (e.g. an objective handed to the program)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper
