"""Campaign-level telemetry guarantees.

* traces are byte-identical between sequential and ``parallel=True``
  campaigns (with a pinned clock),
* the persisted evaluation stream of a kill/resume cycle is
  byte-identical to an uninterrupted run,
* search results are bit-identical with telemetry off, on, and on under
  ``--parallel`` — telemetry is a pure observer,
* the trace progression reproduces ``database.best_so_far()`` exactly.
"""

import numpy as np
import pytest

from repro.bo import EvaluationDatabase
from repro.core import TuningMethodology
from repro.search import SearchCampaign, SearchSpec
from repro.space import Real, SearchSpace
from repro.synthetic import SyntheticFunction
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    NullClock,
    Telemetry,
    TraceReport,
    encode_event,
)

SEED = 0


def space(names, label):
    return SearchSpace([Real(n, 0.0, 1.0) for n in names], name=label)


class Quad:
    def __init__(self, center):
        self.center = center

    def __call__(self, cfg):
        return sum((v - self.center) ** 2 for v in cfg.values()) + 0.05


def specs(n=8):
    return [
        SearchSpec(space(["a", "b"], "S1"), Quad(0.3), max_evaluations=n),
        SearchSpec(space(["c"], "S2"), Quad(0.7), engine="random",
                   max_evaluations=n),
        SearchSpec(space(["d"], "S3"), Quad(0.5), engine="grid",
                   max_evaluations=n),
    ]


def fingerprint(campaign):
    return [
        (s.name, s.best_config, s.best_objective, s.n_evaluations)
        for s in campaign.searches
    ]


def traced_run(**campaign_kwargs):
    sink = MemorySink()
    tel = Telemetry([sink], clock=NullClock())
    result = SearchCampaign(
        specs(), random_state=SEED, telemetry=tel, **campaign_kwargs
    ).run()
    return result, sink


class TestSequentialParallelByteIdentity:
    def test_traces_byte_identical(self):
        seq_result, seq_sink = traced_run()
        par_result, par_sink = traced_run(parallel=True, n_workers=3)
        assert par_result.executed_parallel
        seq_lines = [encode_event(e) for e in seq_sink.events]
        par_lines = [encode_event(e) for e in par_sink.events]
        assert seq_lines == par_lines

    def test_metrics_aggregate_identically(self):
        seq_result, _ = traced_run()
        # Recreate to compare the registries, not the event streams.
        tel_seq = Telemetry([], clock=NullClock())
        SearchCampaign(specs(), random_state=SEED, telemetry=tel_seq).run()
        tel_par = Telemetry([], clock=NullClock())
        SearchCampaign(
            specs(), random_state=SEED, telemetry=tel_par,
            parallel=True, n_workers=3,
        ).run()
        assert tel_seq.metrics.snapshot() == tel_par.metrics.snapshot()
        evals = tel_seq.metrics.snapshot()["counters"]
        assert sum(
            v for k, v in evals.items() if k.startswith("evaluations")
        ) == sum(s.n_evaluations for s in seq_result.searches)


class TestGpFitChildSpans:
    """``gp_fit`` splits into ``mle`` and ``factorize`` children."""

    @staticmethod
    def spans(sink):
        return [e for e in sink.events if e["kind"] == "span"]

    def test_mle_and_factorize_nest_under_gp_fit(self):
        _, sink = traced_run()
        spans = self.spans(sink)
        by_id = {(e["scope"], e["id"]): e for e in spans}
        fits = [e for e in spans if e["name"] == "gp_fit"]
        children: dict[tuple, list[str]] = {}
        for e in spans:
            if e["name"] in ("mle", "factorize"):
                parent = by_id[(e["scope"], e["parent"])]
                assert parent["name"] == "gp_fit"
                assert parent["t0"] <= e["t0"] <= e["t1"] <= parent["t1"]
                children.setdefault((e["scope"], e["parent"]), []).append(
                    e["name"]
                )
            if e["name"] == "mle":
                assert e["attrs"]["starts"] == 3
                assert isinstance(e["attrs"]["nfev"], int)
                assert e["attrs"]["nfev"] >= e["attrs"]["starts"]
        assert fits and any(f["attrs"]["optimize"] for f in fits)
        for f in fits:
            got = children.get((f["scope"], f["id"]), [])
            if f["attrs"]["mode"] != "full":
                assert got == []
            elif f["attrs"]["optimize"]:
                assert got == ["mle", "factorize"]
            else:
                assert got == ["factorize"]

    def test_child_spans_byte_identical_sequential_parallel(self):
        _, seq = traced_run()
        _, par = traced_run(parallel=True, n_workers=3)
        pick = lambda sink: [  # noqa: E731
            encode_event(e) for e in self.spans(sink)
            if e["name"] in ("mle", "factorize")
        ]
        assert pick(seq) and pick(seq) == pick(par)


class TestPureObserver:
    def test_results_identical_off_on_parallel(self):
        bare = SearchCampaign(specs(), random_state=SEED).run()
        on, _ = traced_run()
        par, _ = traced_run(parallel=True, n_workers=3)
        assert fingerprint(on) == fingerprint(bare)
        assert fingerprint(par) == fingerprint(bare)
        for a, b in zip(bare.searches, on.searches):
            assert [r.objective for r in a.database] == [
                r.objective for r in b.database
            ]


class Killer:
    """Objective that dies mid-campaign (simulated crash)."""

    def __init__(self, center, die_after):
        self.center = center
        self.calls = 0
        self.die_after = die_after

    def __call__(self, cfg):
        self.calls += 1
        if self.calls > self.die_after:
            raise KeyboardInterrupt
        return Quad(self.center)(cfg)


class TestKillResumeTraceIdentity:
    def test_eval_channel_byte_identical_after_resume(self, tmp_path):
        sp = space(["a", "b"], "K")

        def run(objective, trace, checkpoint=None):
            tel = Telemetry([JsonlSink(trace)], clock=NullClock())
            try:
                return SearchCampaign(
                    [SearchSpec(sp, objective, max_evaluations=14)],
                    random_state=SEED, telemetry=tel,
                    checkpoint_dir=(
                        str(checkpoint) if checkpoint is not None else None
                    ),
                ).run()
            finally:
                tel.close()

        clean_trace = tmp_path / "clean.trace.jsonl"
        run(Quad(0.4), clean_trace)

        ck = tmp_path / "ck"
        crash_trace = tmp_path / "crash.trace.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run(Killer(0.4, die_after=9), crash_trace, checkpoint=ck)
        db = EvaluationDatabase(ck / "K-0.jsonl")
        assert 0 < len(db) < 14

        # Resume with the same (partially written) trace file: replayed
        # records re-emit their eval events, the sink dedups them, and
        # the persisted eval stream converges to the uninterrupted one.
        run(Quad(0.4), crash_trace, checkpoint=ck)

        def eval_lines(path):
            return [
                encode_event(e)
                for e in TraceReport.from_file(path).eval_events()
            ]

        assert eval_lines(crash_trace) == eval_lines(clean_trace)


class TestProgressionMatchesDatabase:
    def test_trace_progression_equals_best_so_far(self):
        result, sink = traced_run()
        report = TraceReport(sink.events)
        scopes = report.scopes()
        assert len(scopes) == len(result.searches)
        for scope, search in zip(scopes, result.searches):
            expected = search.database.best_so_far()
            got = report.progression(scope)
            assert got == pytest.approx(list(expected), abs=0)
            assert sum(
                report.evaluation_counts(scope).values()
            ) == len(search.database)


class TestMethodologySpans:
    def test_full_pipeline_span_taxonomy(self):
        sink = MemorySink()
        tel = Telemetry([sink], clock=NullClock())
        f = SyntheticFunction(3, random_state=SEED)
        TuningMethodology(
            f.search_space(), f.routines(), cutoff=0.25, n_variations=10,
            random_state=SEED, engine="random", telemetry=tel,
        ).run()
        names = {e["name"] for e in sink.events if e["kind"] == "span"}
        assert {"campaign", "sensitivity", "dag_partition", "search"} <= names
        campaign_spans = [
            e for e in sink.events
            if e["kind"] == "span" and e["name"] == "campaign"
        ]
        assert len(campaign_spans) == 1
        assert campaign_spans[0]["scope"] == "campaign"
        # Every member search emitted eval events under its own scope.
        scopes = TraceReport(sink.events).scopes()
        assert scopes and all("/" in s for s in scopes)


class TestPhase1Progression:
    def test_successful_phase1_scope_is_not_reported_as_failed(self):
        """Phase-1 eval events carry no running best; a scope whose runs
        all succeeded must not read "no successful evaluations"."""
        from repro.core import Routine, RoutineSet
        from repro.insights import Phase1Evaluator, SensitivityAnalysis

        sink = MemorySink()
        tel = Telemetry([sink], clock=NullClock())
        sa = SensitivityAnalysis.from_routines(
            space(["x", "y"], "p1"),
            RoutineSet([Routine("A", ("x",), Quad(0.2)),
                        Routine("B", ("y",), Quad(0.6))]),
            n_variations=4, random_state=SEED,
        )
        sa.run(evaluator=Phase1Evaluator(telemetry=tel))
        report = TraceReport(sink.events)
        (scope,) = report.scopes()
        assert scope.startswith("phase1/")
        assert report.evaluation_counts(scope) == {"ok": 9}
        text = report.format_progression()
        assert f"{scope}: 9 evaluations" in text
        assert "no successful evaluations" not in text
        assert "(no best-so-far series recorded)" in text

    def test_all_failed_scope_still_says_no_successful_evaluations(self):
        events = [
            {"kind": "eval", "scope": "s", "seq": i, "objective": None,
             "cost": 0.0, "status": "failed", "best": None}
            for i in range(3)
        ]
        text = TraceReport(events).format_progression()
        assert "s: 3 evaluations (3 failed/timeout)" in text
        assert "(no successful evaluations)" in text
