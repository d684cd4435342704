"""``service-mix``: an in-process job service driven over HTTP.

The service is what ``repro serve --pool-size 2 --eval-store PATH``
builds, every other setting at its default (fsync ``always``, job
traces on).  One client in the same process submits small ``campaign``
jobs and learns of completions from the ``/events`` SSE stream:

* Phase A is an open loop at ``RATE`` jobs/s.  Each job is timed from
  its due time, so a stall in the generator counts against the jobs it
  delayed.
* Phase B submits ``BURST_JOBS`` jobs at once, which keeps both pool
  workers busy, and waits for them; jobs per second is all burst jobs
  over the bursts' summed makespans.

A run is a number of rounds: a segment of ``SEGMENT_JOBS`` open-loop
jobs, then a burst, then a pause in which nothing is timed.

Every second job repeats the previous job's spec, so half the jobs read
the cross-job evaluation store and half write it.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import layers
from . import spans as sp
from .stats import OpenLoop, highest_percentile, median

POOL_SIZE = 2
FSYNC = "always"
RATE = 1.0  # Phase A jobs per second
SEGMENT_JOBS = 3  # Phase A jobs per round
BURST_JOBS = 8  # Phase B jobs per round
# Nominal length of one round: a run of ``--seconds S`` makes
# ``round(S / ROUND_S)`` rounds, whatever the host's speed.
ROUND_S = 9.0
WAIT_S = 120.0  # give up on a phase after this long


def job_specs(seed: int, n: int) -> list[dict[str, Any]]:
    """``n`` campaign-job params; odd positions repeat the previous spec.

    Distinct specs cycle through synthetic cases 1-4, so every run has
    the same case mix; the job seeds come from ``seed``.
    """
    rng = np.random.default_rng(seed)
    specs: list[dict[str, Any]] = []
    for i in range(n):
        if i % 2:
            specs.append(dict(specs[-1]))
        else:
            specs.append({
                "engine": "bo",
                "budget": 16,
                "case": 1 + (i // 2) % 4,
                "seed": int(rng.integers(0, 2**31 - 1)),
            })
    return specs


class Service:
    """Registry + supervisor + HTTP server + warm worker pool."""

    def __init__(self, workdir: str):
        from repro.service import AdmissionController, JobRegistry, ServiceServer, Supervisor

        self.registry = JobRegistry(os.path.join(workdir, "registry"), fsync=FSYNC)
        self.supervisor = Supervisor(
            self.registry,
            jobs_dir=os.path.join(workdir, "jobs"),
            admission=AdmissionController(max_queue=64),
            pool_size=POOL_SIZE,
            eval_store=os.path.join(workdir, "store.jsonl"),
        )
        self.supervisor.recover()
        self.server = ServiceServer(self.supervisor)
        self.server.start()
        self.supervisor.pool.start()
        self._thread = threading.Thread(
            target=self.supervisor.run, name="perfbench-supervisor", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return self.server.url

    def close(self) -> None:
        self.supervisor.request_drain()
        self._thread.join(WAIT_S)
        self.server.stop()
        self.registry.compact()
        self.registry.close()


@dataclass
class Watcher:
    """Follows ``GET /events``; wakes waiters on every ``job_done``."""

    url: str
    running: dict[str, float] = field(default_factory=dict)
    done: dict[str, tuple[float, dict]] = field(default_factory=dict)

    def __post_init__(self):
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._follow, name="perfbench-events", daemon=True)
        self._thread.start()

    def _follow(self) -> None:
        from repro.service import stream_events

        for _, ev in stream_events(self.url, keepalive=1.0, timeout=WAIT_S):
            now = time.perf_counter()
            job = ev.get("job")
            with self._cond:
                if ev.get("event") == "job_state" and ev.get("state") == "running":
                    self.running.setdefault(job, now)
                elif ev.get("event") == "job_done":
                    self.done[job] = (now, ev)
                    self._cond.notify_all()

    def n_done(self, ids: list[str]) -> int:
        with self._cond:
            return sum(1 for j in ids if j in self.done)

    def wait(self, ids: list[str], timeout: float = WAIT_S) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: all(j in self.done for j in ids), timeout)

    def join(self) -> None:
        self._thread.join(WAIT_S)


def _wait_subscribed(service: Service, timeout: float = 10.0) -> None:
    """Block until the watcher's SSE subscription is live (set-up only)."""
    bus = service.supervisor.event_bus()
    deadline = time.monotonic() + timeout
    while bus.subscriber_count < 1:
        if time.monotonic() > deadline:
            raise RuntimeError("event stream did not subscribe")
        time.sleep(0.01)


def _submit(service: Service, spec: dict) -> str:
    import repro.service

    return repro.service.submit_job(service.url, "campaign", params=spec)["job_id"]


# One job per pool worker before anything is timed: a freshly forked
# worker pays for lazy imports on its first job (1.5-2 s instead of
# ~0.4 s), once per worker lifetime, and that must not read as backlog.
WARMUP = [{"engine": "bo", "budget": 16, "case": 1 + i, "seed": 0} for i in range(POOL_SIZE)]


def start(workdir: str) -> tuple[Service, Watcher, list[str]]:
    """A warm service and a subscribed watcher; also the warm-up job ids."""
    service = Service(workdir)
    watcher = Watcher(service.url)
    try:
        _wait_subscribed(service)
        warm = [_submit(service, spec) for spec in WARMUP]
        if not watcher.wait(warm):
            raise RuntimeError("warm-up jobs did not finish")
    except BaseException:
        stop(service, watcher)
        raise
    return service, watcher, warm


def stop(service: Service, watcher: Watcher) -> None:
    service.close()
    watcher.join()


def n_rounds(seconds: float) -> int:
    return max(1, round(seconds / ROUND_S))


@dataclass
class Phases:
    specs: list[dict]
    warmup_ids: list[str]
    ids: list[str] = field(default_factory=list)  # every job, in the order of ``specs``
    ids_a: list[str] = field(default_factory=list)
    loop: OpenLoop = field(default_factory=lambda: OpenLoop([]))
    inflight_at_send: list[int] = field(default_factory=list)
    bursts: list[tuple[float, list[str]]] = field(default_factory=list)  # (start, ids)

    def submit(self, service: Service, spec: dict) -> str:
        job = _submit(service, spec)
        self.ids.append(job)
        return job


def drive(service: Service, watcher: Watcher, phases: Phases, rounds: int,
          open_loop: bool, pause: Callable[[int, int], None]) -> None:
    """Run ``rounds`` rounds, filling in ``phases``.

    A round is an open-loop segment (Phase A, unless not ``open_loop``)
    and a burst (Phase B), each waited for before the next starts; then
    ``pause(i, rounds + 1)``.  Pause 0 comes before the first round.
    The core's speed on a shared host drifts over seconds; rounds let
    both phases and the pauses sample the whole run, not one end of it.
    """
    specs = iter(phases.specs)

    def send(spec: dict) -> None:
        phases.inflight_at_send.append(len(phases.ids_a) - watcher.n_done(phases.ids_a))
        phases.ids_a.append(phases.submit(service, spec))

    pause(0, rounds + 1)
    for r in range(rounds):
        if open_loop:
            segment = list(itertools.islice(specs, SEGMENT_JOBS))
            loop = OpenLoop.at_rate(time.perf_counter() + 0.2, RATE, len(segment))
            loop.run(lambda i: send(segment[i]))
            phases.loop.due += loop.due
            phases.loop.sent += loop.sent
            if not watcher.wait(phases.ids_a):
                raise RuntimeError("phase A jobs did not finish")
        start = time.perf_counter()
        ids = [phases.submit(service, s) for s in itertools.islice(specs, BURST_JOBS)]
        if not watcher.wait(ids):
            raise RuntimeError("phase B jobs did not finish")
        phases.bursts.append((start, ids))
        pause(r + 1, rounds + 1)


def burst_makespans(watcher: Watcher, bursts) -> list[float]:
    return [max(watcher.done[j][0] for j in ids) - start for start, ids in bursts]


def burst_rate(watcher: Watcher, bursts) -> float:
    """Burst jobs per second of burst time (start to last ``job_done``)."""
    return sum(len(ids) for _, ids in bursts) / sum(burst_makespans(watcher, bursts))


def job_results(service: Service, ids: list[str]) -> dict[str, dict]:
    from repro.service import job_status

    return {j: job_status(service.url, j) for j in ids}


def check_jobs(records: dict[str, dict], ids: list[str], refs: dict[str, str],
               specs: list[dict]) -> list[str]:
    """Every job done, twins equal, each fingerprint equal to its reference.

    ``refs`` maps a spec's canonical JSON to the fingerprint an inline
    ``run_job`` computed for it.
    """
    problems = []
    fingerprints = []
    for job, spec in zip(ids, specs):
        rec = records[job]
        if rec.get("state") != "done":
            problems.append(f"job {job} ended {rec.get('state')}")
            fingerprints.append(None)
            continue
        fp = (rec.get("result") or {}).get("fingerprint")
        fingerprints.append(fp)
        ref = refs.get(spec_key(spec))
        if fp != ref:
            problems.append(f"job {job} fingerprint {fp} != reference {ref}")
    for i in range(1, len(ids), 2):
        if fingerprints[i] != fingerprints[i - 1]:
            problems.append(f"twin jobs {ids[i - 1]} and {ids[i]} differ")
    return problems


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def references(specs: list[dict], workdir: str, out: dict[str, dict[str, Any]]) -> None:
    """Inline ``run_job`` of each distinct spec not yet in ``out``, with no
    store: its wall time, fingerprint, best objective, evaluations and ledger."""
    from repro.bo.history import EvaluationDatabase
    from repro.service import JobSpec, run_job

    for spec in specs:
        key = spec_key(spec)
        if key in out:
            continue
        ref_dir = os.path.join(workdir, "refs", str(len(out)))
        t0 = time.perf_counter()
        result = run_job(JobSpec("campaign", params=spec), ref_dir)
        wall = time.perf_counter() - t0
        cost = sum(
            EvaluationDatabase(path).total_cost()
            for path in glob.glob(os.path.join(ref_dir, "checkpoints", "*.jsonl"))
        )
        out[key] = {
            "wall": wall,
            "fingerprint": result["fingerprint"],
            "best_objective": result["best_objective"],
            "evaluations": sum(s["n_records"] for s in result["searches"]),
            "evaluation_cost": cost,
        }


def _memo_totals(records: dict[str, dict]) -> dict[str, int]:
    totals = {"cross_job_hits": 0, "misses": 0}
    for rec in records.values():
        memo = (rec.get("result") or {}).get("memo") or {}
        for k in totals:
            totals[k] += int(memo.get(k, 0))
    return totals


def _no_pause(i: int, n: int) -> None:
    pass


def _run_once(specs: list[dict], rounds: int, workdir: str, *, open_loop: bool = True,
              pause: Callable[[int, int], None] = _no_pause):
    """Start a service in ``workdir``, drive it through ``specs``, stop it.

    Returns the phases, the watcher, every job's record and the service
    metrics.  Without ``open_loop`` only the bursts run.
    """
    os.makedirs(workdir)
    service, watcher, warm = start(workdir)
    try:
        phases = Phases(specs, warm)
        drive(service, watcher, phases, rounds, open_loop, pause)
        records = job_results(service, phases.ids)
        snapshot = service.supervisor.metrics_snapshot()
    finally:
        stop(service, watcher)
    return phases, watcher, records, snapshot


def _not_done(records: dict[str, dict]) -> int:
    return sum(1 for r in records.values() if r.get("state") != "done")


def _summarize(phases: Phases, watcher: Watcher, records, refs) -> dict[str, Any]:
    loop = phases.loop
    done_a = [watcher.done[j][0] for j in phases.ids_a]
    running_a = [watcher.running.get(j) for j in phases.ids_a]
    makespans = burst_makespans(watcher, phases.bursts)
    problems = check_jobs(
        records, phases.ids, {k: v["fingerprint"] for k, v in refs.items()}, phases.specs
    )
    if max(phases.inflight_at_send) > POOL_SIZE:
        problems.append(
            f"phase A backlog: {max(phases.inflight_at_send)} jobs in flight "
            f"at a send (pool size {POOL_SIZE})"
        )
    return {
        "latencies": loop.latencies(done_a),
        "execute": [d - r for d, r in zip(done_a, running_a) if r is not None],
        "queue_wait": [r - due for r, due in zip(running_a, loop.due) if r is not None],
        "makespans": makespans,
        "burst_rates": [len(ids) / m for (_, ids), m in zip(phases.bursts, makespans)],
        "memo": _memo_totals(records),
        "n_jobs": len(phases.ids),
        "not_done": _not_done(records),
        "problems": problems,
    }


def measure(seed: int, seconds: float, workdir: str,
            pause: Callable[[int, int], None]) -> dict[str, Any]:
    """Untraced run.  Each pause between rounds calls ``pause`` and then
    runs the references of the rounds finished so far, so that these
    too sample the whole run."""
    rounds = n_rounds(seconds)
    per_round = SEGMENT_JOBS + BURST_JOBS
    specs = job_specs(seed, rounds * per_round)
    refs: dict[str, dict[str, Any]] = {}

    def between(i: int, n: int) -> None:
        pause(i, n)
        references(specs[:i * per_round], workdir, refs)

    phases, watcher, records, _ = _run_once(
        specs, rounds, os.path.join(workdir, "service"), pause=between
    )
    s = _summarize(phases, watcher, records, refs)
    ran = list(refs.values())
    return {
        "metrics": {
            "campaign_s": median([r["wall"] for r in ran]),
            # Means, not medians: the four cases' objectives and ledgers
            # lie in separate clusters, and a median jumps between them.
            "tuned_objective": statistics.fmean(r["best_objective"] for r in ran),
            "evaluations": statistics.fmean(r["evaluations"] for r in ran),
            "simulated_search_s": statistics.fmean(r["evaluation_cost"] for r in ran),
        },
        "attempted": s["n_jobs"],
        "failed": s["not_done"],
        "problems": s["problems"],
        "notes": {
            # Too unsteady from run to run to be bounded (see README.md).
            "job_latency_p50_s": round(median(s["latencies"]), 4),
            "jobs_per_s": round(burst_rate(watcher, phases.bursts), 4),
            "phase_a_jobs": len(phases.ids_a),
            "phase_a_rate_per_s": RATE,
            "latency_samples": len(s["latencies"]),
            # Highest percentile with at least 10 samples beyond it.
            "latency_tail_q_s": highest_percentile(s["latencies"]),
            "latencies_s": [round(x, 3) for x in s["latencies"]],
            "client_late_max_ms": round(1000 * phases.loop.late_max, 3),
            "inflight_at_send": phases.inflight_at_send,
            "burst_jobs_per_s": [round(r, 3) for r in s["burst_rates"]],
            "reference_walls_s": [round(r["wall"], 3) for r in ran],
            "memo": s["memo"],
        },
    }


def traced(seed: int, seconds: float, workdir: str) -> dict[str, Any]:
    """Two untraced bursts, then the whole workload with every layer timed.

    Pool workers fork after the wrappers are installed, so they inherit
    them; each worker writes its spans to a file after every job.
    ``tracing_overhead`` compares the median burst makespans.
    """
    plain, plain_watcher, plain_records, _ = _run_once(
        job_specs(seed, 2 * BURST_JOBS), 2, os.path.join(workdir, "plain"), open_loop=False
    )
    plain_makespan = median(burst_makespans(plain_watcher, plain.bursts))

    recorder = sp.SpanRecorder()
    span_dir = os.path.join(workdir, "spans")
    os.makedirs(span_dir)
    flushes = itertools.count()

    def flush() -> None:
        path = os.path.join(span_dir, f"{os.getpid()}-{next(flushes)}.json")
        with open(path, "w") as f:
            json.dump(recorder.drain(), f)

    # A forked worker must not re-report the parent's spans.  The hook
    # cannot be removed again; later forks in this process reset an
    # empty child copy, which is harmless.
    os.register_at_fork(after_in_child=recorder.reset)
    traced_dir = os.path.join(workdir, "traced")
    with sp.Patcher(recorder) as patcher:
        from repro.service import pool

        layers.instrument(patcher, service=True)
        patcher.span(pool, "execute_job", "service.job",
                     trace_of=lambda a, k: a[0].get("job_id"), after=flush)
        client = recorder.open("client")
        try:
            rounds = n_rounds(seconds)
            specs = job_specs(seed, rounds * (SEGMENT_JOBS + BURST_JOBS))
            phases, watcher, records, snapshot = _run_once(specs, rounds, traced_dir)
        finally:
            recorder.close(client)
    dumps = [recorder.drain()]
    for path in sorted(glob.glob(os.path.join(span_dir, "*.json"))):
        with open(path) as f:
            dump = json.load(f)
        # Each worker file holds one job's spans; leave out the warm-up jobs.
        if not any(x["trace"] in phases.warmup_ids for x in dump["spans"]):
            dumps.append(dump)
    spans, counters = sp.merge(dumps)

    refs: dict[str, dict[str, Any]] = {}
    references(phases.specs, workdir, refs)
    s = _summarize(phases, watcher, records, refs)
    metrics = layers.layer_metrics(spans, counters)
    trace_bytes = sum(
        os.path.getsize(p)
        for p in glob.glob(os.path.join(traced_dir, "jobs", "*", "trace", "*"))
    )
    with open(os.path.join(traced_dir, "store.jsonl")) as f:
        store_records = sum(1 for _ in f) - 1  # minus the header line
    hits, misses = s["memo"]["cross_job_hits"], s["memo"]["misses"]
    makespan = median(s["makespans"])
    metrics.update({
        "search.store_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "search.store_records": store_records,
        "service.submit_ms_p50": 1000 * median(
            [x.duration for x in spans if x.name == "service.submit"]
        ),
        "service.job_latency_p50_s": median(s["latencies"]),
        "service.jobs_per_s": burst_rate(watcher, phases.bursts),
        "service.queue_wait_s_p50": median(s["queue_wait"]),
        "service.execute_s_p50": median(s["execute"]),
        "service.requeues": sum(
            v for k, v in snapshot["counters"].items() if k.startswith("service_requeues")
        ),
        "telemetry.job_trace_bytes": trace_bytes,
        "client.late_max_ms": 1000 * phases.loop.late_max,
        "failed_ratio": s["not_done"] / s["n_jobs"],
        "trace.wall_s": makespan,
        "trace.untraced_wall_s": plain_makespan,
        "tracing_overhead": makespan / plain_makespan,
        "trace.unattributed_share": layers.unattributed_share(spans, "service.job"),
    })
    problems = s["problems"]
    plain_not_done = _not_done(plain_records)
    if plain_not_done:
        problems.append(f"untraced pass: {plain_not_done} jobs not done")
    return {
        "metrics": metrics,
        "attempted": s["n_jobs"] + len(plain.ids),
        "failed": s["not_done"] + plain_not_done,
        "problems": problems,
        "spans": spans,
    }


def setup_only(workdir: str) -> None:
    """Bring the service up (printing ``ready``) and down once."""
    os.makedirs(workdir)
    try:
        service = Service(workdir)
        print("ready", flush=True)
        service.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
