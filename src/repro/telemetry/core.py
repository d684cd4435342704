"""Telemetry facade and span tracer.

One :class:`Telemetry` object carries everything the observation layer
needs — sinks, the injectable clock, the metrics registry, and the
optional live progress reporter — and is threaded through
``TuningMethodology -> SearchCampaign -> CampaignExecutor -> engines``.
Every instrumentation site is a pure observer: it never draws random
state, never changes control flow, and is skipped entirely (``tracer is
None`` fast path or :data:`NULL_TRACER` no-ops) when telemetry is
disabled, so search results are bit-identical with telemetry on or off.

Span taxonomy (see ``docs/observability.md``)::

    campaign                 one methodology run / one campaign stage
      sensitivity            phase-1 per-routine sensitivity analysis
      insights               step-2 statistical insight sample
      dag_partition          influence -> DAG -> search-plan partitioning
      search                 one campaign member search
        bo_iteration         one BO loop iteration
          gp_fit             surrogate (re)fit
            mle              hyperparameter MLE
            factorize        Cholesky factorization
          acquisition        acquisition maximization
          evaluation         one objective evaluation

Event channels per scope:

* ``span`` / ``event`` — emitted in deterministic order, numbered by a
  shared per-scope ``seq`` counter; describe *work this process actually
  performed* (a resumed run does not re-emit the killed run's spans).
* ``eval`` — one event per evaluation-database record, with ``seq`` equal
  to the record's database index.  Resumed searches re-emit them for
  replayed records, and :class:`~repro.telemetry.sinks.JsonlSink`
  deduplicates by ``(scope, seq)``, so the persisted evaluation stream of
  a kill/resume cycle is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Mapping, Sequence

from ..log import get_logger
from .clock import MonotonicClock
from .metrics import MetricsRegistry
from .sinks import MemorySink

__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "NullTracer",
    "NULL_TRACER",
    "config_hash",
    "CAMPAIGN_SCOPE",
]

logger = get_logger("telemetry")

#: Scope name for campaign-level (non-member) spans and events.
CAMPAIGN_SCOPE = "campaign"


def config_hash(config: Mapping[str, Any]) -> int:
    """Stable 32-bit hash of a configuration dict.

    Keys are sorted and values rendered with ``repr`` after coercing
    numpy scalars via ``.item()``, so logically equal configurations hash
    identically across processes and runs.
    """
    parts = []
    for k in sorted(config):
        v = config[k]
        item = getattr(v, "item", None)
        if item is not None and type(v).__module__ == "numpy":
            v = item()
        parts.append(f"{k}={v!r}")
    return zlib.crc32(";".join(parts).encode("utf-8"))


class Span:
    """One open span; ``attrs`` may be updated until the span closes."""

    __slots__ = ("name", "id", "parent", "t0", "attrs")

    def __init__(self, name: str, id: int, parent: int | None, t0: float,
                 attrs: dict[str, Any]):
        self.name = name
        self.id = id
        self.parent = parent
        self.t0 = t0
        self.attrs = attrs


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._end_span(self._span, error=exc_type is not None)


class Tracer:
    """Per-scope span/event emitter bound to one :class:`Telemetry`.

    Scopes partition the trace: ``"campaign"`` for pipeline-level work,
    one scope per campaign member (e.g. ``"stage-0/Group_1-0"``) for the
    searches.  Span ids, sequence numbers, and the open-span stack are
    kept per scope *on the Telemetry object*, so two tracers for the same
    scope (e.g. methodology- and executor-level campaign tracers) nest
    correctly.
    """

    __slots__ = ("telemetry", "scope")

    def __init__(self, telemetry: "Telemetry", scope: str):
        self.telemetry = telemetry
        self.scope = scope

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        tel = self.telemetry
        stack = tel._stack(self.scope)
        span = Span(
            name=name,
            id=tel._next_span_id(self.scope),
            parent=stack[-1].id if stack else None,
            t0=tel.clock.now(),
            attrs=attrs,
        )
        stack.append(span)
        return _SpanContext(self, span)

    def _end_span(self, span: Span, *, error: bool) -> None:
        tel = self.telemetry
        stack = tel._stack(self.scope)
        if stack and stack[-1] is span:
            stack.pop()
        event = {
            "kind": "span",
            "scope": self.scope,
            "seq": tel._next_seq(self.scope),
            "name": span.name,
            "id": span.id,
            "parent": span.parent,
            "t0": span.t0,
            "t1": tel.clock.now(),
            "attrs": dict(span.attrs),
        }
        if error:
            event["error"] = True
        tel.emit(event)

    # ------------------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        tel = self.telemetry
        tel.emit(
            {
                "kind": "event",
                "scope": self.scope,
                "seq": tel._next_seq(self.scope),
                "name": name,
                "t": tel.clock.now(),
                "attrs": attrs,
            }
        )

    def eval_event(
        self,
        index: int,
        *,
        objective: float,
        cost: float,
        status: str,
        best: float | None,
        failure_kind: str | None = None,
        cfg_hash: int | None = None,
        **attrs: Any,
    ) -> None:
        """One evaluation record, keyed by its database index.

        Content is fully determined by the evaluation record itself, so a
        resumed run re-emits byte-identical events for replayed records.
        """
        tel = self.telemetry
        event = {
            "kind": "eval",
            "scope": self.scope,
            "seq": int(index),
            "objective": objective,
            "cost": cost,
            "status": status,
            "best": best,
        }
        if failure_kind is not None:
            event["failure_kind"] = failure_kind
        if cfg_hash is not None:
            event["config_hash"] = int(cfg_hash)
        if attrs:
            event["attrs"] = attrs
        tel.emit(event)

    def metrics_event(self, registry: MetricsRegistry) -> None:
        """Deterministic snapshot of a registry into the event stream."""
        tel = self.telemetry
        tel.emit(
            {
                "kind": "metrics",
                "scope": self.scope,
                "seq": tel._next_seq(self.scope),
                **registry.snapshot(),
            }
        )


class Telemetry:
    """Sinks + clock + metrics + (optional) live progress, as one handle.

    Parameters
    ----------
    sinks:
        Persistent sinks (trace files, memory buffers).  Every emitted or
        forwarded event reaches all of them.
    clock:
        Timestamp source for spans/events (default: real monotonic).
        Inject :class:`~repro.telemetry.clock.NullClock` for byte-
        identical traces.
    metrics:
        The campaign-level registry; member searches run with their own
        registry which the executor merges back in member order.
    progress:
        Optional live reporter (an object with ``emit(event)``) — kept
        *out* of ``sinks`` so the executor can feed it exactly once per
        event regardless of whether events were observed live (in-process
        member) or arrived as a forwarded batch (pool member).
    """

    enabled = True

    def __init__(
        self,
        sinks: Sequence[Any] = (),
        *,
        clock: Any = None,
        metrics: MetricsRegistry | None = None,
        progress: Any = None,
    ):
        self.sinks = list(sinks)
        self.clock = clock if clock is not None else MonotonicClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.progress = progress
        self._span_ids: dict[str, int] = {}
        self._seqs: dict[str, int] = {}
        self._stacks: dict[str, list[Span]] = {}

    # -- per-scope counters --------------------------------------------
    def _next_span_id(self, scope: str) -> int:
        n = self._span_ids.get(scope, 0)
        self._span_ids[scope] = n + 1
        return n

    def _next_seq(self, scope: str) -> int:
        n = self._seqs.get(scope, 0)
        self._seqs[scope] = n + 1
        return n

    def _stack(self, scope: str) -> list[Span]:
        s = self._stacks.get(scope)
        if s is None:
            s = self._stacks[scope] = []
        return s

    # ------------------------------------------------------------------
    def tracer(self, scope: str = CAMPAIGN_SCOPE) -> Tracer:
        return Tracer(self, scope)

    def emit(self, event: Mapping[str, Any], *, live: bool = True) -> None:
        for sink in self.sinks:
            sink.emit(event)
        if live and self.progress is not None:
            self.progress.emit(event)

    def forward(
        self, events: Iterable[Mapping[str, Any]], *, live: bool = True
    ) -> None:
        """Merge a member's buffered event stream into this telemetry.

        Used by the campaign executor: members (in-process or pool
        workers) buffer their events in a :class:`MemorySink`; the parent
        forwards each member's buffer *in member order*, which is what
        makes sequential and parallel campaigns produce identical traces.
        ``live=False`` skips the progress reporter (for events it already
        saw live).
        """
        for event in events:
            self.emit(event, live=live)

    def member(self, *, live: bool = True) -> tuple["Telemetry", MemorySink]:
        """A member-scoped telemetry buffering into a fresh MemorySink.

        The member telemetry shares this one's clock (deterministic
        clocks stay deterministic) but gets its own metrics registry so
        worker- and in-process members aggregate identically.  With
        ``live=True`` the child feeds the progress reporter as events
        happen (sequential mode: forward the buffer with ``live=False``
        afterwards); ``live=False`` keeps progress out of the child
        (pool-fallback mode: the batch forward feeds progress instead).
        """
        buffer = MemorySink()
        child = Telemetry(
            [buffer], clock=self.clock, metrics=MetricsRegistry(),
            progress=self.progress if live else None,
        )
        return child, buffer

    def inline_member(self) -> "Telemetry":
        """A member-scoped telemetry that shares this one's sinks *live*.

        The sequential executor path uses this instead of
        :meth:`member` + ``forward``: each event reaches the persistent
        sinks the moment it happens, so live tailers (the service event
        bus) see evaluations as they complete rather than in one burst
        at member end.  Traces stay byte-identical with the buffered
        path because a sequential member's events arrive in exactly the
        order ``forward`` would have replayed them — the child only
        carries its own metrics registry (merged back by the caller,
        like a pool member's) and its own per-scope counters.
        """
        return Telemetry(
            self.sinks, clock=self.clock, metrics=MetricsRegistry(),
            progress=self.progress,
        )

    def close(self) -> None:
        """Flush and close all sinks (and the progress line, if any)."""
        if self.progress is not None:
            close = getattr(self.progress, "close", None)
            if close is not None:
                close()
        for sink in self.sinks:
            sink.close()


class NullTracer:
    """No-op tracer: the zero-overhead-when-disabled path.

    ``span()`` returns a shared no-op context manager and the event
    methods return immediately; engines that receive ``tracer=None``
    should prefer an explicit ``is None`` check on their hot paths, but
    the null object keeps optional call sites branch-free.
    """

    __slots__ = ()

    class _NullSpanContext:
        __slots__ = ()

        @property
        def attrs(self) -> dict[str, Any]:
            # Fresh throwaway dict per access: writes are discarded, and
            # no state is shared across the singleton's uses.
            return {}

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    _NULL_SPAN = _NullSpanContext()

    def span(self, name: str, **attrs: Any):
        return self._NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def eval_event(self, index: int, **fields: Any) -> None:
        return None

    def metrics_event(self, registry: Any) -> None:
        return None


NULL_TRACER = NullTracer()
