"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``synthetic``
    Run the methodology on one of the five synthetic cases and print the
    analysis + tuning summary.
``tddft``
    Run the staged methodology on a simulated RT-TDDFT case study.
``report``
    Analyze a campaign trace (``--trace-dir`` output): stage wall-time
    attribution and best-value-vs-evaluations progression.  With
    ``--service DIR`` it instead aggregates every job trace in a
    service directory into one cross-job table.
``info``
    Print the package inventory and the per-experiment benchmark map.
``serve``
    Run the crash-safe tuning job service (WAL-backed registry,
    lease-supervised workers, REST API; see ``docs/service.md``).
``submit``
    Submit a job to a running service (or enqueue it offline straight
    into a registry directory for the next ``serve``).
``jobs``
    List jobs or show one job's status on a running service.
``watch``
    Follow a running service's SSE event stream (all jobs, or one job
    until it completes; see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

__all__ = ["main"]


def _make_telemetry(args: argparse.Namespace, command: str):
    """Build the run's Telemetry handle from CLI flags (or ``None``).

    Tracing requires ``--trace-dir`` (one JSONL trace file per command
    run); the live progress line additionally needs a TTY stderr and no
    ``--no-progress``.  Without either, no telemetry object exists at
    all — the zero-overhead default, and no telemetry files are written.
    """
    want_progress = (
        not getattr(args, "no_progress", False) and sys.stderr.isatty()
    )
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is None and not want_progress:
        return None
    from .telemetry import JsonlSink, ProgressReporter, Telemetry

    sinks = []
    if trace_dir is not None:
        sinks.append(
            JsonlSink(os.path.join(trace_dir, f"{command}.trace.jsonl"))
        )
    progress = ProgressReporter() if want_progress else None
    return Telemetry(sinks, progress=progress)


def _cmd_synthetic(args: argparse.Namespace) -> int:
    from .core import TuningMethodology
    from .synthetic import SyntheticFunction

    app = SyntheticFunction(args.case, random_state=args.seed)
    telemetry = _make_telemetry(args, "synthetic")
    tm = TuningMethodology(
        app.search_space(),
        app.routines(),
        cutoff=args.cutoff,
        n_variations=args.variations,
        telemetry=telemetry,
        random_state=args.seed,
        **_robustness_kwargs(args),
    )
    try:
        result = tm.run() if not args.plan_only else tm.analyze()
    finally:
        if telemetry is not None:
            telemetry.close()
    print(result.summary())
    if not args.plan_only:
        print(f"\ncombined best F = {app(result.best_config):.3f}")
    return 0


def _cmd_tddft(args: argparse.Namespace) -> int:
    from .core import TuningMethodology
    from .tddft import RTTDDFTApplication, case_study

    app = RTTDDFTApplication(case_study(args.case_study), random_state=args.seed)
    telemetry = _make_telemetry(args, "tddft")
    tm = TuningMethodology(
        app.search_space(),
        app.routines(),
        cutoff=args.cutoff,
        n_variations=args.variations,
        n_baselines=args.baselines,
        variation_mode="random",
        hierarchy=app.hierarchy(),
        telemetry=telemetry,
        random_state=args.seed,
        **_robustness_kwargs(args),
    )
    try:
        result = tm.run() if not args.plan_only else tm.analyze()
    finally:
        if telemetry is not None:
            telemetry.close()
    print(result.summary())
    if not args.plan_only:
        app.noise_scale = 0.0
        before = app.total_runtime(app.defaults())
        after = app.total_runtime(result.best_config)
        print(f"\ndefault : {1000 * before:9.2f} ms/iteration")
        print(f"tuned   : {1000 * after:9.2f} ms/iteration "
              f"({before / after:.2f}x speedup)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.service is not None:
        from .service import ServiceReport

        report = ServiceReport.from_service_dir(args.service)
        if not report.jobs:
            print(f"{args.service}: no jobs recorded")
            return 1
        print(report.format())
        return 0
    if args.trace is None:
        print("repro report: provide TRACE.jsonl or --service DIR",
              file=sys.stderr)
        return 2
    from .telemetry import TraceReport

    report = TraceReport.from_file(args.trace)
    if not report.events:
        print(f"{args.trace}: empty trace")
        return 1
    print(report.format())
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from . import __version__

    print(f"repro {__version__} — IPDPS'24 cost-effective tuning methodology")
    print(__doc__ or "")
    print("experiment -> benchmark map:")
    experiments = [
        ("Table I", "bench_table1_synthetic.py"),
        ("Table II", "bench_table2_sensitivity.py"),
        ("Figure 2", "bench_fig2_dag.py"),
        ("Table III", "bench_table3_strategies.py"),
        ("Table IV", "bench_table4_space.py"),
        ("Table V", "bench_table5_cs1_sensitivity.py"),
        ("Table VI", "bench_table6_cs2_sensitivity.py"),
        ("Figure 5", "bench_fig5_tddft_dag.py"),
        ("Table VII", "bench_table7_search_set.py"),
        ("Figure 6", "bench_fig6_progression.py"),
        ("Sec. V motivation", "bench_cpu_motivation.py"),
        ("Sec. VIII joint-vs-separate", "bench_joint_vs_separate.py"),
        ("Sec. IV-C observation cost", "bench_orthogonality_cost.py"),
        ("Abstract headline claims", "bench_headline_claims.py"),
    ]
    for exp, bench in experiments:
        print(f"  {exp:<28} benchmarks/{bench}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import AdmissionController, JobRegistry, ServiceServer, Supervisor

    telemetry = _make_telemetry(args, "serve")
    registry = JobRegistry(
        os.path.join(args.registry_dir, "registry"), fsync=args.fsync
    )
    admission = AdmissionController(
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        tenant_fail_threshold=args.tenant_fail_threshold,
    )
    supervisor = Supervisor(
        registry,
        jobs_dir=os.path.join(args.registry_dir, "jobs"),
        admission=admission,
        workers=args.workers,
        heartbeat_interval=args.heartbeat_interval,
        max_missed=args.max_missed,
        max_attempts=args.max_attempts,
        inline=args.inline,
        telemetry=telemetry,
        job_traces=args.job_traces,
        pool_size=args.pool_size,
        eval_store=args.eval_store,
    )
    supervisor.install_signal_handlers()
    orphans = supervisor.recover()
    if orphans:
        print(f"requeued {len(orphans)} orphaned job(s)")
    server = None
    if not args.no_http:
        server = ServiceServer(supervisor, host=args.host, port=args.port)
        server.start()
        print(f"listening on {server.url}", flush=True)
    try:
        clean = supervisor.run(
            drain_when_idle=args.drain_when_idle,
            max_seconds=args.max_seconds,
        )
    finally:
        if server is not None:
            server.stop()
        registry.compact()
        registry.close()
        if telemetry is not None:
            telemetry.close()
    return 0 if clean else 1


def _parse_job_params(args: argparse.Namespace) -> dict:
    import json

    params = dict(json.loads(args.params)) if args.params else {}
    for key in ("case", "seed", "budget"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    params = _parse_job_params(args)
    if args.registry_dir is not None:
        # Offline enqueue: write straight into the registry; the next
        # `repro serve` on this directory leases it.
        from .service import JobRegistry, JobSpec

        with JobRegistry(os.path.join(args.registry_dir, "registry")) as reg:
            rec = reg.submit(
                JobSpec(kind=args.kind, tenant=args.tenant, params=params)
            )
        print(json.dumps({"job_id": rec.job_id, "state": rec.state}))
        return 0
    from .service import ServiceClientError, submit_job, wait_for_job

    try:
        rec = submit_job(
            args.server, args.kind, tenant=args.tenant, params=params
        )
    except ServiceClientError as exc:
        print(json.dumps(exc.payload), file=sys.stderr)
        return 1
    if args.wait:
        rec = wait_for_job(args.server, rec["job_id"], timeout=args.timeout)
    print(json.dumps(rec, sort_keys=True))
    return 0 if rec["state"] not in ("failed", "rejected") else 1


def _format_watch_event(cursor: int, event: dict) -> str:
    """One human-readable line per service event."""
    name = event.get("event", "?")
    job = event.get("job", "?")
    if name == "job_state":
        extra = f" reason={event['reason']}" if event.get("reason") else ""
        snap = " (snapshot)" if event.get("snapshot") else ""
        return f"[{cursor}] {job} state={event.get('state')}{extra}{snap}"
    if name == "tune_start":
        return (
            f"[{cursor}] {job} tune_start scope={event.get('scope')} "
            f"engine={event.get('engine')} budget={event.get('budget')}"
            + (" resumed" if event.get("resumed") else "")
        )
    if name == "combo_result":
        obj = event.get("objective")
        best = event.get("best")
        line = (
            f"[{cursor}] {job} eval #{event.get('seq')} "
            f"objective={obj if obj is not None else 'failed'}"
        )
        if isinstance(best, (int, float)):
            line += f" best={best:.6g}"
        return line
    if name == "job_progress":
        eta = event.get("eta_seconds")
        thr = event.get("throughput")
        bits = [f"{event.get('done')}/{event.get('budget') or '?'} evals"]
        if event.get("best") is not None:
            bits.append(f"best={event['best']:.6g}")
        if thr is not None:
            bits.append(f"{thr:.1f} eval/s")
        if eta is not None:
            bits.append(f"eta={eta:.0f}s")
        return f"[{cursor}] {job} progress " + " ".join(bits)
    if name == "job_done":
        bits = [f"[{cursor}] {job} {event.get('state')}"]
        if event.get("best_objective") is not None:
            bits.append(f"best={event['best_objective']:.6g}")
        if event.get("fingerprint"):
            bits.append(f"fingerprint={event['fingerprint'][:12]}")
        if event.get("error"):
            bits.append(f"error={event['error']}")
        return " ".join(bits)
    import json

    return f"[{cursor}] {json.dumps(event, sort_keys=True)}"


def _cmd_watch(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceClientError, stream_events

    exit_state = None
    try:
        for cursor, event in stream_events(
            args.server,
            args.job,
            last_event_id=args.last_event_id,
            timeout=args.timeout,
            max_events=args.max_events,
            keepalive=args.keepalive,
        ):
            if args.raw:
                print(json.dumps({"cursor": cursor, **event}, sort_keys=True),
                      flush=True)
            else:
                print(_format_watch_event(cursor, event), flush=True)
            if event.get("event") == "job_done" and event.get("job") == args.job:
                exit_state = event.get("state")
    except ServiceClientError as exc:
        print(json.dumps(exc.payload), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    if args.job is not None:
        return 0 if exit_state == "done" else 1
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from .service import cancel_job, job_status, list_jobs

    if args.job is None:
        for rec in list_jobs(args.server):
            print(json.dumps(rec, sort_keys=True))
        return 0
    rec = (
        cancel_job(args.server, args.job)
        if args.cancel
        else job_status(args.server, args.job)
    )
    print(json.dumps(rec, sort_keys=True))
    return 0


def _add_verbosity(p: argparse.ArgumentParser) -> None:
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="log level: -v = INFO, -vv = DEBUG on the "
                        "repro.* logger hierarchy (default: WARNING)")


def _add_executor_options(p: argparse.ArgumentParser) -> None:
    """Campaign-executor flags shared by the tuning commands."""
    _add_verbosity(p)
    p.add_argument("--sampler", "--engine", dest="sampler", default="bo",
                   metavar="NAME",
                   help="search engine for the planned searches: any "
                        "registered sampler name (gp-bo/bo, batch-bo, "
                        "random, grid, tpe, cma-es-lite, qmc, hillclimb, "
                        "anneal; default: bo)")
    p.add_argument("--sampler-for", action="append", default=[],
                   metavar="REGION=NAME",
                   help="override the sampler for one planned search / "
                        "DAG region by name (e.g. --sampler-for "
                        "'G3+G4=tpe'); repeatable, other searches keep "
                        "--sampler")
    p.add_argument("--parallel", action="store_true",
                   help="run each stage's member searches concurrently "
                        "(process pool; falls back in-process for "
                        "unpicklable objectives with identical results)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="process-pool width (default: cpu count)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="directory for crash-recovery evaluation "
                        "checkpoints; rerunning resumes from them")
    p.add_argument("--parallel-analysis", action="store_true",
                   help="fan phase-1 measurements (baseline, variations, "
                        "insight sample) across the process pool; "
                        "bit-identical to sequential for deterministic "
                        "objectives")
    p.add_argument("--analysis-checkpoint-dir", default=None, metavar="DIR",
                   help="directory for phase-1 append-only observation "
                        "logs; a killed analysis resumes mid-variation "
                        "instead of restarting")
    p.add_argument("--warm-start", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="recycle phase-1 observations as BO seed history "
                        "(each match replaces one cold search "
                        "evaluation); --no-warm-start keeps searches "
                        "cold (default)")
    p.add_argument("--warm-start-tolerance", type=float, default=0.0,
                   metavar="TOL",
                   help="relative tolerance for numeric pin matching "
                        "during warm-start projection (default: 0 = "
                        "exact; inexact matches never prime the "
                        "memoization cache)")
    p.add_argument("--warm-start-max", type=int, default=None, metavar="K",
                   help="cap on seeded observations per search "
                        "(default: the engine's n_initial)")
    p.add_argument("--max-retries", type=int, default=0, metavar="K",
                   help="retry transiently-failing evaluations up to K "
                        "times (permanent failures short-circuit)")
    p.add_argument("--retry-backoff", type=float, default=0.05,
                   metavar="SEC", help="initial exponential-backoff delay "
                        "between retries (default: 0.05s)")
    p.add_argument("--memoize", action="store_true",
                   help="cache evaluations on the canonicalized "
                        "configuration (permanent failures become poison "
                        "keys and are never re-paid)")
    p.add_argument("--wall-timeout", type=float, default=None, metavar="SEC",
                   help="real wall-clock watchdog deadline per evaluation "
                        "(catches genuinely hanging objectives)")
    p.add_argument("--quarantine-threshold", type=int, default=None,
                   metavar="K",
                   help="circuit breaker: quarantine a space cell after K "
                        "permanently-classified failures in it")
    p.add_argument("--quarantine-resolution", type=int, default=4,
                   metavar="R", help="breaker grid resolution per axis "
                        "(default: 4)")
    p.add_argument("--inject-faults", default=None, metavar="PLAN.json",
                   help="chaos testing: inject deterministic faults per "
                        "the FaultPlan JSON file (see docs/robustness.md)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write a JSONL campaign trace (spans, per-"
                        "evaluation events, metrics) to DIR; inspect it "
                        "with `repro report` (see docs/observability.md)")
    p.add_argument("--no-progress", "--quiet", dest="no_progress",
                   action="store_true",
                   help="suppress the live progress/ETA line on stderr")


def _sampler_overrides(args: argparse.Namespace) -> dict[str, str]:
    """Parse repeated ``--sampler-for REGION=NAME`` flags."""
    overrides: dict[str, str] = {}
    for term in getattr(args, "sampler_for", None) or []:
        region, sep, name = term.partition("=")
        if not sep or not region or not name:
            raise SystemExit(
                f"repro: bad --sampler-for {term!r}; expected REGION=NAME"
            )
        overrides[region.strip()] = name.strip()
    return overrides


def _robustness_kwargs(args: argparse.Namespace) -> dict:
    """Translate executor flags into TuningMethodology keyword arguments."""
    from .faults import FaultPlan

    return {
        "engine": getattr(args, "sampler", "bo"),
        "engine_overrides": _sampler_overrides(args),
        "parallel": args.parallel,
        "n_workers": args.workers,
        "checkpoint_dir": args.checkpoint_dir,
        "parallel_analysis": args.parallel_analysis,
        "analysis_checkpoint_dir": args.analysis_checkpoint_dir,
        "warm_start": args.warm_start,
        "warm_start_tolerance": args.warm_start_tolerance,
        "warm_start_max": args.warm_start_max,
        "max_retries": args.max_retries,
        "retry_backoff": args.retry_backoff,
        "memoize": args.memoize,
        "wall_timeout": args.wall_timeout,
        "quarantine_threshold": args.quarantine_threshold,
        "quarantine_resolution": args.quarantine_resolution,
        "fault_plan": (
            FaultPlan.from_json(args.inject_faults)
            if args.inject_faults
            else None
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-effective tuning-search methodology (IPDPS'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthetic", help="tune a synthetic case")
    p.add_argument("--case", type=int, default=3, choices=range(1, 6))
    p.add_argument("--cutoff", type=float, default=0.25)
    p.add_argument("--variations", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan-only", action="store_true",
                   help="run the analysis phases without executing searches")
    _add_executor_options(p)
    p.set_defaults(func=_cmd_synthetic)

    p = sub.add_parser("tddft", help="tune a simulated RT-TDDFT case study")
    p.add_argument("--case-study", type=int, default=1, choices=(1, 2))
    p.add_argument("--cutoff", type=float, default=0.10)
    p.add_argument("--variations", type=int, default=5)
    p.add_argument("--baselines", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan-only", action="store_true")
    _add_executor_options(p)
    p.set_defaults(func=_cmd_tddft)

    p = sub.add_parser(
        "report", help="analyze a campaign trace written by --trace-dir"
    )
    p.add_argument("trace", metavar="TRACE.jsonl", nargs="?", default=None,
                   help="trace file produced by --trace-dir, or that "
                        "directory (every *.trace.jsonl in it)")
    p.add_argument("--service", default=None, metavar="DIR",
                   help="aggregate every job trace in a service directory "
                        "(the --registry-dir of `repro serve`) into one "
                        "cross-job stage-attribution table")
    _add_verbosity(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("info", help="package inventory and experiment map")
    _add_verbosity(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "serve", help="run the crash-safe tuning job service"
    )
    p.add_argument("--registry-dir", required=True, metavar="DIR",
                   help="service state root (WAL registry + job workdirs); "
                        "restarting on the same DIR resumes every "
                        "interrupted job from its checkpoints")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="HTTP port (default: 0 = ephemeral, printed on start)")
    p.add_argument("--no-http", action="store_true",
                   help="supervise queued jobs without the REST front-end "
                        "(batch/offline mode)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent worker-process slots (default: 2)")
    p.add_argument("--pool-size", type=int, default=None, metavar="N",
                   help="run jobs on a shared pool of N long-lived worker "
                        "processes instead of forking one process per job "
                        "(amortizes process startup; implies --workers N)")
    p.add_argument("--eval-store", default=None, metavar="PATH",
                   help="append-only JSONL evaluation store shared across "
                        "jobs: configurations another job on the same "
                        "space already measured are served from the store "
                        "instead of re-evaluated")
    p.add_argument("--inline", action="store_true",
                   help="run jobs in-process instead of worker processes "
                        "(no kill-based supervision; benchmark mode)")
    p.add_argument("--heartbeat-interval", type=float, default=0.25,
                   metavar="SEC")
    p.add_argument("--max-missed", type=int, default=8, metavar="K",
                   help="heartbeats missed before a lease expires and the "
                        "worker is killed + fenced (default: 8)")
    p.add_argument("--max-attempts", type=int, default=5, metavar="K",
                   help="lease attempts before a job fails permanently")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="queued-job bound; beyond it submissions are shed "
                        "with an explicit queue_full rejection")
    p.add_argument("--tenant-quota", type=int, default=None, metavar="N",
                   help="max active jobs per tenant (default: unlimited)")
    p.add_argument("--tenant-fail-threshold", type=int, default=None,
                   metavar="K",
                   help="permanently-failed jobs before a tenant is "
                        "quarantined (circuit breaker; default: off)")
    p.add_argument("--fsync", default="always",
                   choices=("always", "rotate", "close"),
                   help="registry WAL durability policy (default: always)")
    p.add_argument("--job-traces", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="write per-job JSONL traces (the substrate of "
                        "`repro watch` and GET /events; default: on). "
                        "--no-job-traces runs jobs unobserved.")
    p.add_argument("--drain-when-idle", action="store_true",
                   help="exit cleanly once the queue is empty and no "
                        "leases are active (batch mode)")
    p.add_argument("--max-seconds", type=float, default=None, metavar="SEC",
                   help="hard cap on the supervision loop (exit 1 if hit)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write a JSONL service trace (job lifecycle "
                        "events) to DIR")
    p.add_argument("--no-progress", "--quiet", dest="no_progress",
                   action="store_true", help=argparse.SUPPRESS)
    _add_verbosity(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit a tuning job")
    p.add_argument("--server", default="http://127.0.0.1:8642",
                   metavar="URL", help="service base URL")
    p.add_argument("--registry-dir", default=None, metavar="DIR",
                   help="enqueue offline into this registry instead of "
                        "talking to a server")
    p.add_argument("--kind", default="campaign",
                   choices=("campaign", "methodology"))
    p.add_argument("--tenant", default="default")
    p.add_argument("--case", type=int, default=None, choices=range(1, 6))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="campaign-kind evaluation budget")
    p.add_argument("--params", default=None, metavar="JSON",
                   help="extra job params as a JSON object")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.add_argument("--timeout", type=float, default=300.0, metavar="SEC")
    _add_verbosity(p)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("jobs", help="list/inspect jobs on a running service")
    p.add_argument("--server", default="http://127.0.0.1:8642", metavar="URL")
    p.add_argument("--job", default=None, metavar="ID")
    p.add_argument("--cancel", action="store_true",
                   help="cancel the job given by --job")
    _add_verbosity(p)
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser(
        "watch", help="follow a service's live SSE event stream"
    )
    p.add_argument("job", nargs="?", default=None, metavar="JOB_ID",
                   help="watch one job (stream ends at its job_done; exit "
                        "0 iff it completed); omit to watch every job")
    p.add_argument("--server", default="http://127.0.0.1:8642", metavar="URL")
    p.add_argument("--raw", action="store_true",
                   help="print raw event JSON (one object per line, with "
                        "the cursor) instead of formatted lines")
    p.add_argument("--last-event-id", type=int, default=None, metavar="N",
                   help="resume after a previously seen cursor (sent as "
                        "the Last-Event-ID header)")
    p.add_argument("--max-events", type=int, default=None, metavar="N",
                   help="stop after N events (default: until the stream "
                        "ends)")
    p.add_argument("--keepalive", type=float, default=None, metavar="SEC",
                   help="server keep-alive ping cadence (default: 15s)")
    p.add_argument("--timeout", type=float, default=3600.0, metavar="SEC",
                   help="socket read timeout; must exceed the keep-alive "
                        "cadence (default: 3600)")
    _add_verbosity(p)
    p.set_defaults(func=_cmd_watch)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from .log import configure_logging

    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", 0))
    try:
        return args.func(args)
    except BrokenPipeError:
        # e.g. `repro report trace.jsonl | head`; suppress the stderr
        # noise from the interpreter closing the torn stdout at exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
