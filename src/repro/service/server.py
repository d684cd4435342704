"""Minimal REST front-end for the tuning job service (stdlib only).

Routes::

    POST /jobs               {"kind", "tenant", "params", "job_id"?} -> 201 + record
    GET  /jobs               -> {"jobs": [summaries...]}; ?tenant= ?state=
    GET  /jobs/<id>          -> full record (incl. result when done)
    POST /jobs/<id>/cancel   -> updated record
    GET  /health             -> {"status", "queue_depth", ..., "metrics"}
    GET  /metrics            -> Prometheus text exposition (0.0.4)
    GET  /events             -> SSE stream of every job's events
    GET  /jobs/<id>/events   -> SSE stream of one job (ends on job_done)

The SSE endpoints speak standard ``text/event-stream``: each frame
carries the bus cursor as its ``id:``, so a client that reconnects with
``Last-Event-ID`` (header, or ``?last_event_id=`` for clients that
cannot set headers) resumes exactly after the last frame it saw — no
gaps, no duplicates, no torn lines (the bus only ever publishes whole
trace lines).  ``?max_events=N`` bounds a stream (tests) and
``?keepalive=SECONDS`` tunes the comment-ping cadence.

Request bodies are capped at :data:`MAX_BODY_BYTES` (413 above it; a
malformed ``Content-Length`` is 400), and a client-chosen ``job_id``
must be a plain file name (400 otherwise, 409 if already taken).

Shed submissions map to honest HTTP status codes — ``queue_full`` and
``tenant_quota`` are 429, ``tenant_quarantined`` 403, ``draining`` 503 —
and every rejection body carries the machine-readable ``reason`` the
registry recorded.  The handler threads only touch the supervisor's
thread-safe surface (``submit``/``cancel``/registry reads/metrics
snapshots/event-bus subscriptions); all lease mechanics stay on the
supervision loop thread.

The client half (:func:`submit_job`, :func:`stream_events`, and
friends) wraps :mod:`urllib` so the CLI and tests need no third-party
HTTP stack.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator, Mapping

from ..log import get_logger
from ..telemetry.metrics import render_prometheus
from .admission import (
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    REASON_TENANT_QUARANTINED,
    REASON_TENANT_QUOTA,
)
from .jobs import JobSpec
from .registry import JobRecord, JobState, RegistryError
from .supervisor import Supervisor

__all__ = [
    "MAX_BODY_BYTES",
    "ServiceServer",
    "ServiceClientError",
    "submit_job",
    "job_status",
    "list_jobs",
    "cancel_job",
    "health",
    "metrics_text",
    "stream_events",
]

logger = get_logger("service")

#: Largest request body read, in bytes (a job spec is a few hundred).
MAX_BODY_BYTES = 1 << 20


#: Admission reason -> HTTP status for shed submissions.
_REJECT_STATUS = {
    REASON_QUEUE_FULL: 429,
    REASON_TENANT_QUOTA: 429,
    REASON_TENANT_QUARANTINED: 403,
    REASON_DRAINING: 503,
}


def _record_payload(rec: JobRecord, *, full: bool = True) -> dict[str, Any]:
    payload = {
        "job_id": rec.job_id,
        "kind": rec.spec.kind,
        "tenant": rec.spec.tenant,
        "state": rec.state,
        "epoch": rec.epoch,
        "attempt": rec.attempt,
        "reason": rec.reason,
    }
    if full:
        payload["params"] = dict(rec.spec.params)
        payload["result"] = rec.result
        payload["error"] = rec.error
    return payload


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    @property
    def supervisor(self) -> Supervisor:
        return self.server.supervisor  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("http: " + format, *args)

    def _send(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any] | None:
        """The body as a JSON object (``{}`` if it is not one), or
        ``None`` after replying 400/413 to a malformed or oversized
        ``Content-Length``."""
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, which would poison a kept-alive
            # connection: close it after the reply.
            self.close_connection = True
            if length < 0:
                error = (400, f"malformed Content-Length {header!r}")
            else:
                error = (413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
            self._send(error[0], {"error": error[1]})
            return None
        try:
            data = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError:
            return {}
        return data if isinstance(data, dict) else {}

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, _, rawq = self.path.partition("?")
        query = urllib.parse.parse_qs(rawq)
        parts = [p for p in path.split("/") if p]
        if parts == ["health"]:
            sup = self.supervisor
            self._send(
                200,
                {
                    "status": "draining" if sup.draining else "ok",
                    "queue_depth": sup.registry.queue_depth(),
                    "running": len(sup.active_leases()),
                    "workers": sup.workers,
                    "metrics": sup.metrics_snapshot(),
                },
            )
            return
        if parts == ["metrics"]:
            body = render_prometheus(self.supervisor.metrics_snapshot())
            data = body.encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        if parts == ["events"]:
            self._stream_events(None, query)
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            self._stream_events(parts[1], query)
            return
        if parts == ["jobs"]:
            tenant = (query.get("tenant") or [None])[0]
            state = (query.get("state") or [None])[0]
            if state is not None and state not in JobState.ALL:
                self._send(
                    400,
                    {
                        "error": f"unknown state {state!r}",
                        "states": list(JobState.ALL),
                    },
                )
                return
            jobs = self.supervisor.registry.jobs()
            if tenant is not None:
                jobs = [r for r in jobs if r.spec.tenant == tenant]
            if state is not None:
                jobs = [r for r in jobs if r.state == state]
            self._send(
                200,
                {"jobs": [_record_payload(rec, full=False) for rec in jobs]},
            )
            return
        if len(parts) == 2 and parts[0] == "jobs":
            try:
                rec = self.supervisor.registry.get(parts[1])
            except KeyError:
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
                return
            self._send(200, _record_payload(rec))
            return
        self._send(404, {"error": f"no route for GET {self.path}"})

    # -- SSE -----------------------------------------------------------
    def _stream_events(
        self, job_id: str | None, query: Mapping[str, list[str]]
    ) -> None:
        sup = self.supervisor
        if job_id is not None:
            try:
                sup.registry.get(job_id)
            except KeyError:
                self._send(404, {"error": f"unknown job {job_id!r}"})
                return
        last_id = self.headers.get("Last-Event-ID") or (
            query.get("last_event_id") or [None]
        )[0]
        try:
            after = int(last_id) if last_id else 0
            max_events = (
                int(query["max_events"][0]) if "max_events" in query else None
            )
            keepalive = float((query.get("keepalive") or ["15.0"])[0])
        except ValueError:
            self._send(
                400,
                {"error": "last_event_id / max_events / keepalive "
                          "must be numeric"},
            )
            return
        sub = sup.event_bus().subscribe(job_id=job_id, after=after)
        # SSE has no length; the response body ends when we close the
        # connection, so opt out of HTTP/1.1 keep-alive explicitly.
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        try:
            while True:
                item = sub.get(timeout=keepalive)
                if item is None:
                    if sub.closed:  # bus closed (server stopping)
                        return
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                cursor, event = item
                data = json.dumps(event, sort_keys=True)
                frame = (
                    f"id: {cursor}\n"
                    f"event: {event.get('event', 'message')}\n"
                    f"data: {data}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                sent += 1
                if job_id is not None and event.get("event") == "job_done":
                    return
                if max_events is not None and sent >= max_events:
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to report
        finally:
            sub.close()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["jobs"]:
            data = self._read_json()
            if data is None:
                return
            if "kind" not in data:
                self._send(400, {"error": "body must be JSON with a 'kind'"})
                return
            try:
                spec = JobSpec(
                    kind=data["kind"],
                    job_id=data.get("job_id"),
                    tenant=data.get("tenant", "default"),
                    params=dict(data.get("params", {})),
                )
            except ValueError as exc:
                self._send(400, {"error": str(exc)})
                return
            try:
                rec, decision = self.supervisor.submit(spec)
            except RegistryError as exc:
                self._send(409, {"error": str(exc)})
                return
            if decision.admitted:
                self._send(201, _record_payload(rec))
            else:
                self._send(
                    _REJECT_STATUS.get(decision.reason, 429),
                    {
                        **_record_payload(rec),
                        "error": decision.detail,
                        "reason": decision.reason,
                    },
                )
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            try:
                rec = self.supervisor.cancel(parts[1])
            except KeyError:
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
                return
            self._send(200, _record_payload(rec))
            return
        self._send(404, {"error": f"no route for POST {self.path}"})


class ServiceServer:
    """Threaded HTTP front-end bound to one supervisor."""

    def __init__(
        self, supervisor: Supervisor, *, host: str = "127.0.0.1", port: int = 0
    ):
        self.supervisor = supervisor
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.supervisor = supervisor  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        logger.info("service listening on %s", self.url)

    def stop(self) -> None:
        # Close the event bus first: shutdown() waits for in-flight
        # handlers, and SSE handlers block on their subscriptions — the
        # bus close wakes them so they can exit.
        self.supervisor.close_event_bus()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Client


class ServiceClientError(RuntimeError):
    """Non-2xx response from the service (carries status + payload)."""

    def __init__(self, status: int, payload: Mapping[str, Any]):
        super().__init__(
            f"HTTP {status}: {payload.get('error') or payload.get('reason')}"
        )
        self.status = status
        self.payload = dict(payload)


def _request(
    url: str, *, method: str = "GET", payload: Mapping[str, Any] | None = None,
    timeout: float = 10.0,
) -> dict[str, Any]:
    body = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        try:
            data = json.loads(exc.read() or b"{}")
        except json.JSONDecodeError:
            data = {"error": str(exc)}
        raise ServiceClientError(exc.code, data) from None


def submit_job(
    base_url: str,
    kind: str,
    *,
    tenant: str = "default",
    params: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    return _request(
        f"{base_url}/jobs",
        method="POST",
        payload={"kind": kind, "tenant": tenant, "params": dict(params or {})},
    )


def job_status(base_url: str, job_id: str) -> dict[str, Any]:
    return _request(f"{base_url}/jobs/{job_id}")


def list_jobs(base_url: str) -> list[dict[str, Any]]:
    return _request(f"{base_url}/jobs")["jobs"]


def cancel_job(base_url: str, job_id: str) -> dict[str, Any]:
    return _request(f"{base_url}/jobs/{job_id}/cancel", method="POST")


def health(base_url: str) -> dict[str, Any]:
    return _request(f"{base_url}/health")


def metrics_text(base_url: str, *, timeout: float = 10.0) -> str:
    """Fetch the Prometheus text exposition from ``GET /metrics``."""
    req = urllib.request.Request(f"{base_url}/metrics")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def stream_events(
    base_url: str,
    job_id: str | None = None,
    *,
    last_event_id: int | None = None,
    timeout: float = 30.0,
    max_events: int | None = None,
    keepalive: float | None = None,
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Consume an SSE endpoint as ``(cursor, event)`` pairs (stdlib only).

    ``last_event_id`` resumes after a previously seen cursor (sent as
    the standard ``Last-Event-ID`` header).  ``timeout`` is the socket
    read timeout — it must exceed the server's keep-alive cadence
    (pass ``keepalive`` to tighten the server's pings instead).  The
    generator ends when the server closes the stream: after ``job_done``
    on per-job streams, after ``max_events`` frames, or at shutdown.
    """
    params: dict[str, str] = {}
    if max_events is not None:
        params["max_events"] = str(max_events)
    if keepalive is not None:
        params["keepalive"] = str(keepalive)
    url = base_url + (f"/jobs/{job_id}/events" if job_id else "/events")
    if params:
        url += "?" + urllib.parse.urlencode(params)
    headers = {"Accept": "text/event-stream"}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    req = urllib.request.Request(url, headers=headers)
    try:
        resp = urllib.request.urlopen(req, timeout=timeout)
    except urllib.error.HTTPError as exc:
        try:
            data = json.loads(exc.read() or b"{}")
        except json.JSONDecodeError:
            data = {"error": str(exc)}
        raise ServiceClientError(exc.code, data) from None
    with resp:
        cursor: int | None = None
        data_lines: list[str] = []
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\r\n")
            if not line:  # blank line = frame boundary
                if data_lines and cursor is not None:
                    yield cursor, json.loads("\n".join(data_lines))
                cursor, data_lines = None, []
                continue
            if line.startswith(":"):
                continue  # keep-alive comment
            field_name, _, value = line.partition(":")
            if value.startswith(" "):
                value = value[1:]
            if field_name == "id":
                cursor = int(value)
            elif field_name == "data":
                data_lines.append(value)


def wait_for_job(
    base_url: str, job_id: str, *, timeout: float = 60.0, interval: float = 0.1
) -> dict[str, Any]:
    """Poll until the job reaches a terminal state (or raise TimeoutError)."""
    import time

    deadline = time.monotonic() + timeout
    while True:
        rec = job_status(base_url, job_id)
        if rec["state"] in JobState.TERMINAL:
            return rec
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"job {job_id} still {rec['state']} after {timeout:g}s"
            )
        time.sleep(interval)
