"""Span recorder, self-time derivation and call-site patching."""

import types

import pytest

from perfbench import spans as sp


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = sp.SpanRecorder(clock=clock)
    outer = rec.open("outer")          # t=0
    clock.now = 1.0
    inner = rec.open("inner")          # t=1
    clock.now = 2.0
    leaf = rec.open("leaf")            # t=2
    clock.now = 2.5
    rec.close(leaf)
    clock.now = 4.0
    rec.close(inner)                   # inner: 1..4, leaf covers 0.5
    clock.now = 6.0
    second = rec.open("inner")         # t=6
    clock.now = 7.0
    rec.close(second)
    clock.now = 10.0
    rec.close(outer)                   # outer: 0..10, children cover 3 + 1

    own = sp.self_times(rec.spans)
    assert own[outer.id] == pytest.approx(6.0)
    assert own[inner.id] == pytest.approx(2.5)
    assert own[leaf.id] == pytest.approx(0.5)
    assert inner.parent == outer.id and leaf.parent == inner.id

    totals = sp.totals_by_name(rec.spans)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self_s"] == pytest.approx(3.5)
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(outer.duration)


def test_overlapping_children_are_counted_once():
    parent = sp.Span("p:1", "p", 0.0, 10.0, None, None)
    kids = [
        sp.Span("p:2", "a", 1.0, 4.0, "p:1", None),
        sp.Span("p:3", "b", 3.0, 5.0, "p:1", None),   # overlaps a
        sp.Span("p:4", "c", 9.0, 12.0, "p:1", None),  # runs past the parent
    ]
    own = sp.self_times([parent, *kids])
    assert own["p:1"] == pytest.approx(10.0 - 4.0 - 1.0)


def test_trace_id_is_inherited_by_children():
    rec = sp.SpanRecorder()
    rec.set_trace("job-7")
    outer = rec.open("outer")
    rec.set_trace(None)
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    assert outer.trace == inner.trace == "job-7"


def test_patcher_times_calls_counts_and_restores():
    class Model:
        def fit(self, n):
            return list(range(n))

        @classmethod
        def build(cls):
            return cls()

    module = types.SimpleNamespace(solve=lambda x: x * 2)
    original_fit, original_solve = Model.fit, module.solve
    rec = sp.SpanRecorder()
    with sp.Patcher(rec) as p:
        p.span(Model, "fit", "fit", counts=lambda a, k, r: {"items": len(r)})
        p.span(Model, "build", "build")
        p.span(module, "solve", "solve")
        model = Model.build()
        assert model.fit(3) == [0, 1, 2]
        assert module.solve(4) == 8
    assert Model.fit is original_fit and module.solve is original_solve
    assert isinstance(Model.__dict__["build"], classmethod)
    spans, counters = sp.merge([rec.drain()])
    assert sorted(s.name for s in spans) == ["build", "fit", "solve"]
    assert counters == {"items": 3}
    assert rec.drain() == {"spans": [], "counters": {}}


def test_span_closes_when_the_call_raises():
    rec = sp.SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        sp.timed(rec, "boom", boom)()
    after = rec.open("after")
    rec.close(after)
    span, _ = rec.spans
    assert span.end is not None and after.parent is None


def test_reset_does_not_wait_for_an_inherited_lock():
    # In a forked child the parent's lock may be held by a thread that
    # does not exist there; reset must neither take nor wait for it.
    rec = sp.SpanRecorder()
    rec.close(rec.open("parent-side"))
    rec.count("n")
    rec._lock.acquire()
    rec.reset()
    assert rec.spans == [] and dict(rec.counters) == {}
    rec.close(rec.open("child-side"))
    assert [s["name"] for s in rec.drain()["spans"]] == ["child-side"]
