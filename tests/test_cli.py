"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthetic_defaults(self):
        args = build_parser().parse_args(["synthetic"])
        assert args.case == 3 and args.cutoff == 0.25

    def test_tddft_defaults(self):
        args = build_parser().parse_args(["tddft"])
        assert args.case_study == 1 and args.cutoff == 0.10

    def test_invalid_case_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthetic", "--case", "7"])

    def test_telemetry_flags(self):
        args = build_parser().parse_args(
            ["synthetic", "--trace-dir", "/tmp/t", "--quiet", "-vv"]
        )
        assert args.trace_dir == "/tmp/t"
        assert args.no_progress is True
        assert args.verbose == 2

    def test_report_without_source_is_usage_error(self, capsys):
        # TRACE became optional when --service arrived, so the check
        # moved from argparse into the command itself.
        assert build_parser().parse_args(["report"]).trace is None
        assert main(["report"]) == 2
        assert "--service" in capsys.readouterr().err

    def test_report_service_flag(self):
        args = build_parser().parse_args(["report", "--service", "/tmp/svc"])
        assert args.service == "/tmp/svc"
        assert args.trace is None

    def test_watch_defaults(self):
        args = build_parser().parse_args(["watch"])
        assert args.job is None
        assert args.server == "http://127.0.0.1:8642"
        assert args.raw is False
        assert args.last_event_id is None
        assert args.max_events is None
        assert args.timeout == 3600

    def test_watch_flags(self):
        args = build_parser().parse_args(
            ["watch", "job-1", "--raw", "--last-event-id", "7",
             "--max-events", "20", "--keepalive", "2.5"]
        )
        assert args.job == "job-1"
        assert args.raw is True
        assert args.last_event_id == 7
        assert args.max_events == 20
        assert args.keepalive == 2.5

    def test_serve_job_traces_toggle(self):
        base = ["serve", "--registry-dir", "/tmp/svc"]
        assert build_parser().parse_args(base).job_traces is True
        args = build_parser().parse_args(base + ["--no-job-traces"])
        assert args.job_traces is False

    def test_phase1_engine_flags(self):
        args = build_parser().parse_args([
            "synthetic", "--parallel-analysis",
            "--analysis-checkpoint-dir", "/tmp/p1",
            "--warm-start", "--warm-start-tolerance", "0.05",
            "--warm-start-max", "3",
        ])
        assert args.parallel_analysis is True
        assert args.analysis_checkpoint_dir == "/tmp/p1"
        assert args.warm_start is True
        assert args.warm_start_tolerance == 0.05
        assert args.warm_start_max == 3

    def test_phase1_engine_defaults_off(self):
        args = build_parser().parse_args(["tddft", "--no-warm-start"])
        assert args.parallel_analysis is False
        assert args.analysis_checkpoint_dir is None
        assert args.warm_start is False
        assert args.warm_start_tolerance == 0.0
        assert args.warm_start_max is None

    def test_phase1_flags_reach_methodology_kwargs(self):
        from repro.cli import _robustness_kwargs

        args = build_parser().parse_args(
            ["synthetic", "--warm-start", "--parallel-analysis"]
        )
        kw = _robustness_kwargs(args)
        assert kw["warm_start"] is True
        assert kw["parallel_analysis"] is True
        assert kw["warm_start_tolerance"] == 0.0
        assert kw["warm_start_max"] is None
        assert kw["analysis_checkpoint_dir"] is None


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "bench_table3_strategies.py" in out

    def test_synthetic_plan_only(self, capsys):
        rc = main(
            ["synthetic", "--case", "4", "--variations", "20", "--plan-only"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Group 3+Group 4" in out

    def test_tddft_plan_only(self, capsys):
        rc = main(
            ["tddft", "--case-study", "1", "--variations", "5",
             "--baselines", "2", "--plan-only"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Slater Determinant" in out
        assert "Stage" in out


class TestTelemetryCommands:
    def test_no_trace_dir_writes_no_telemetry_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["synthetic", "--case", "1", "--variations", "5", "--seed", "0",
             "--no-progress", "--plan-only"]
        )
        assert rc == 0
        assert list(tmp_path.rglob("*.jsonl")) == []

    def test_trace_dir_then_report(self, tmp_path, capsys):
        rc = main(
            ["synthetic", "--case", "1", "--variations", "5", "--seed", "0",
             "--trace-dir", str(tmp_path), "--no-progress"]
        )
        assert rc == 0
        trace = tmp_path / "synthetic.trace.jsonl"
        assert trace.exists()
        capsys.readouterr()

        outputs = []
        for source in (trace, tmp_path):  # the file, and the --trace-dir itself
            rc = main(["report", str(source)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "stage wall-time attribution" in out
            assert "best-value-vs-evaluations progression" in out
            assert "campaign" in out
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_report_empty_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "empty.trace.jsonl"
        trace.write_text(
            '{"format":"repro-trace","kind":"header","version":1}\n'
        )
        assert main(["report", str(trace)]) == 1
        assert "empty trace" in capsys.readouterr().out


class TestServiceCommands:
    FAST = {"engine": "bo", "budget": 5, "seed": 0}

    def _run_service_dir(self, tmp_path):
        from repro.service import JobRegistry, JobSpec, Supervisor

        registry = JobRegistry(tmp_path / "registry")
        sup = Supervisor(
            registry, jobs_dir=str(tmp_path / "jobs"), workers=1, inline=True
        )
        rec, _ = sup.submit(JobSpec(kind="campaign", params=dict(self.FAST)))
        sup.run(drain_when_idle=True, poll_interval=0.0)
        registry.close()
        return rec

    def test_report_service_aggregates(self, tmp_path, capsys):
        rec = self._run_service_dir(tmp_path)
        assert main(["report", "--service", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert rec.job_id in out
        assert "cross-job stage wall-time attribution" in out

    def test_report_service_empty_dir(self, tmp_path, capsys):
        from repro.service import JobRegistry

        JobRegistry(tmp_path / "registry").close()
        assert main(["report", "--service", str(tmp_path)]) == 1
        assert "no jobs" in capsys.readouterr().out

    def test_watch_job_to_completion(self, tmp_path, capsys):
        import json
        import threading

        from repro.service import (
            JobRegistry, ServiceServer, Supervisor, submit_job,
        )

        registry = JobRegistry(tmp_path / "registry")
        sup = Supervisor(
            registry, jobs_dir=str(tmp_path / "jobs"), workers=1, inline=True
        )
        thread = threading.Thread(
            target=sup.run, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        try:
            with ServiceServer(sup) as server:
                rec = submit_job(server.url, "campaign", params=self.FAST)
                rc = main(
                    ["watch", rec["job_id"], "--server", server.url,
                     "--keepalive", "0.5", "--timeout", "60"]
                )
                out = capsys.readouterr().out
                assert rc == 0
                assert f"{rec['job_id']} done" in out
                assert "tune_start" in out
                assert out.count("eval #") == self.FAST["budget"]
                capsys.readouterr()

                # --raw replays the same stream as machine-readable JSON.
                rc = main(
                    ["watch", rec["job_id"], "--server", server.url,
                     "--raw", "--keepalive", "0.5", "--timeout", "60"]
                )
                lines = [
                    json.loads(l) for l in
                    capsys.readouterr().out.splitlines()
                ]
                assert rc == 0
                assert all("cursor" in l for l in lines)
                assert lines[-1]["event"] == "job_done"
        finally:
            sup.request_drain()
            thread.join(timeout=30)
            registry.close()

    def test_watch_unknown_job_errors(self, tmp_path, capsys):
        import threading

        from repro.service import JobRegistry, ServiceServer, Supervisor

        registry = JobRegistry(tmp_path / "registry")
        sup = Supervisor(
            registry, jobs_dir=str(tmp_path / "jobs"), workers=1, inline=True
        )
        try:
            with ServiceServer(sup) as server:
                rc = main(["watch", "ghost", "--server", server.url])
            assert rc == 1
            assert "ghost" in capsys.readouterr().err
        finally:
            registry.close()
