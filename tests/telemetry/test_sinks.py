"""Tests for the JSONL trace sink: encoding, rotation, resume dedup."""

import json

import numpy as np
import pytest

from repro.telemetry import JsonlSink, encode_event, load_trace


class TestEncodeEvent:
    def test_sorted_keys_compact(self):
        assert encode_event({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_nan_and_inf_become_null(self):
        line = encode_event({"x": float("nan"), "y": float("inf"), "z": 1.0})
        assert json.loads(line) == {"x": None, "y": None, "z": 1.0}

    def test_numpy_coerced(self):
        line = encode_event(
            {"i": np.int64(3), "f": np.float64(0.5), "a": np.array([1, 2])}
        )
        assert json.loads(line) == {"a": [1, 2], "f": 0.5, "i": 3}

    def test_nested_structures(self):
        line = encode_event({"attrs": {"v": float("nan"), "t": (1, 2)}})
        assert json.loads(line) == {"attrs": {"t": [1, 2], "v": None}}


class TestJsonlSink:
    def test_writes_header_then_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"kind": "event", "scope": "s", "seq": 0})
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert json.loads(lines[1])["kind"] == "event"

    def test_resume_skips_persisted_eval_seqs(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ev = {"kind": "eval", "scope": "m", "seq": 0, "objective": 1.0}
        with JsonlSink(path) as sink:
            sink.emit(ev)
            sink.emit({**ev, "seq": 1})
        # Re-open (resume): replayed evals 0-1 are deduplicated, new
        # ones and non-eval events still append; no second header.
        with JsonlSink(path) as sink:
            sink.emit(ev)
            sink.emit({**ev, "seq": 1})
            sink.emit({**ev, "seq": 2})
            sink.emit({"kind": "span", "scope": "m", "seq": 9, "name": "x"})
        events = load_trace(path)
        assert [e["seq"] for e in events if e["kind"] == "eval"] == [0, 1, 2]
        assert sum(1 for line in path.read_text().splitlines()
                   if json.loads(line)["kind"] == "header") == 1

    def test_dedup_is_per_scope(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"kind": "eval", "scope": "a", "seq": 0})
        with JsonlSink(path) as sink:
            sink.emit({"kind": "eval", "scope": "b", "seq": 0})
        events = load_trace(path)
        assert {(e["scope"], e["seq"]) for e in events} == {("a", 0), ("b", 0)}

    def test_rotation_keeps_all_events_readable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path, max_bytes=200, max_files=20) as sink:
            for i in range(50):
                sink.emit({"kind": "eval", "scope": "m", "seq": i})
        assert (tmp_path / "t.jsonl.1").exists()
        events = load_trace(path)
        assert [e["seq"] for e in events] == list(range(50))

    def test_rotation_drops_oldest_beyond_max_files(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path, max_bytes=120, max_files=2) as sink:
            for i in range(60):
                sink.emit({"kind": "eval", "scope": "m", "seq": i})
        assert (path.parent / "t.jsonl.2").exists()
        assert not (path.parent / "t.jsonl.3").exists()
        events = load_trace(path)
        # Oldest events were dropped but the retained tail is contiguous.
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(seqs[0], 60))

    def test_dedup_survives_rotation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path, max_bytes=150, max_files=20) as sink:
            for i in range(20):
                sink.emit({"kind": "eval", "scope": "m", "seq": i})
        with JsonlSink(path, max_bytes=150, max_files=20) as sink:
            for i in range(22):  # 0-19 replayed, 20-21 new
                sink.emit({"kind": "eval", "scope": "m", "seq": i})
        events = load_trace(path)
        assert [e["seq"] for e in events] == list(range(22))

    def test_invalid_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", max_bytes=0)


class TestLoadTrace:
    def test_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"kind": "event", "scope": "s", "seq": 0, "name": "a"})
        with open(path, "a") as f:
            f.write('{"kind": "event", "scope": "s", "se')  # crash mid-append
        events = load_trace(path)
        assert len(events) == 1 and events[0]["name"] == "a"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "header", "format": "not-ours"}\n')
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)

    def test_directory_loads_every_trace_file(self, tmp_path):
        for name in ("b", "a"):
            with JsonlSink(tmp_path / f"{name}.trace.jsonl") as sink:
                sink.emit({"kind": "span", "scope": "s", "seq": 0, "name": name})
        (tmp_path / "notes.txt").write_text("not a trace")
        events = load_trace(tmp_path)
        assert [e["name"] for e in events] == ["a", "b"]
        assert load_trace(tmp_path / "a.trace.jsonl") == events[:1]

    def test_directory_without_traces_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path)


class TestFsyncPolicy:
    def test_policies_exported_and_validated(self):
        from repro.telemetry.sinks import FSYNC_POLICIES

        assert FSYNC_POLICIES == ("always", "rotate", "close")
        with pytest.raises(ValueError, match="fsync"):
            JsonlSink("/tmp/never-created.jsonl", fsync="sometimes")

    @pytest.mark.parametrize("policy", ["always", "rotate", "close"])
    def test_all_policies_produce_identical_traces(self, tmp_path, policy):
        path = tmp_path / f"{policy}.jsonl"
        with JsonlSink(path, fsync=policy) as sink:
            for i in range(5):
                sink.emit({"kind": "eval", "scope": "m", "seq": i})
        events = load_trace(path)
        assert [e["seq"] for e in events] == list(range(5))

    def test_always_policy_durable_per_line_without_close(self, tmp_path):
        # With fsync="always" every line is on disk the moment emit
        # returns — readable by another process even if this one is
        # SIGKILLed before close().
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, fsync="always")
        sink.emit({"kind": "eval", "scope": "m", "seq": 0})
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + the eval, no buffering
        sink.close()

    def test_rotation_respects_policy(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path, max_bytes=120, max_files=4, fsync="rotate") as sink:
            for i in range(20):
                sink.emit({"kind": "eval", "scope": "m", "seq": i})
        assert (tmp_path / "t.jsonl.1").exists()
        assert [e["seq"] for e in load_trace(path)][-1] == 19


class TestIdempotentClose:
    def test_double_close_is_noop(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit({"kind": "event", "scope": "s", "seq": 0, "name": "a"})
        sink.close()
        sink.close()  # must not raise on the already-released handle
        assert len(load_trace(tmp_path / "t.jsonl")) == 1

    def test_close_after_external_handle_close(self, tmp_path):
        # A failed rotation can leave the handle closed but not None;
        # close() must tolerate that half-state instead of raising
        # ValueError on flushing a closed file.
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink._file.close()
        sink.close()
        assert sink._file is None
