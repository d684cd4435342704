"""REST front-end: routes, honest shed statuses, client helpers."""

import threading

import pytest

from repro.service import (
    AdmissionController,
    JobRegistry,
    JobSpec,
    JobState,
    ServiceClientError,
    ServiceServer,
    Supervisor,
    cancel_job,
    health,
    job_status,
    list_jobs,
    submit_job,
    wait_for_job,
)

FAST = {"engine": "bo", "budget": 8, "seed": 0}


@pytest.fixture
def static_service(tmp_path):
    """Server over a supervisor that is never ticked — queue mechanics
    are fully observable because nothing gets leased."""
    registry = JobRegistry(tmp_path / "registry")
    supervisor = Supervisor(
        registry,
        jobs_dir=str(tmp_path / "jobs"),
        admission=AdmissionController(max_queue=2, tenant_fail_threshold=1),
        workers=1,
    )
    with ServiceServer(supervisor) as server:
        yield server
    registry.close()


@pytest.fixture
def live_service(tmp_path):
    """Server plus a background supervision loop that executes jobs."""
    registry = JobRegistry(tmp_path / "registry")
    supervisor = Supervisor(registry, jobs_dir=str(tmp_path / "jobs"), workers=1)
    thread = threading.Thread(
        target=supervisor.run, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    with ServiceServer(supervisor) as server:
        yield server
    supervisor.request_drain()
    thread.join(timeout=30)
    registry.close()


class TestRoutes:
    def test_submit_runs_to_completion(self, live_service):
        rec = submit_job(
            live_service.url, "campaign", tenant="t1", params=FAST
        )
        assert rec["state"] == JobState.QUEUED
        done = wait_for_job(live_service.url, rec["job_id"], timeout=60)
        assert done["state"] == JobState.DONE
        assert done["result"]["fingerprint"]
        assert done["tenant"] == "t1"

    def test_health_and_listing(self, static_service):
        submit_job(static_service.url, "campaign", params=FAST)
        status = health(static_service.url)
        assert status["status"] == "ok"
        assert status["queue_depth"] == 1
        assert status["workers"] == 1
        jobs = list_jobs(static_service.url)
        assert len(jobs) == 1 and jobs[0]["state"] == JobState.QUEUED

    def test_job_status_includes_params(self, static_service):
        rec = submit_job(static_service.url, "campaign", params=FAST)
        full = job_status(static_service.url, rec["job_id"])
        assert full["params"] == FAST
        assert full["result"] is None

    def test_cancel_queued_job(self, static_service):
        rec = submit_job(static_service.url, "campaign", params=FAST)
        out = cancel_job(static_service.url, rec["job_id"])
        assert out["state"] == JobState.CANCELLED


class TestErrors:
    def test_unknown_job_is_404(self, static_service):
        with pytest.raises(ServiceClientError) as err:
            job_status(static_service.url, "no-such-job")
        assert err.value.status == 404
        with pytest.raises(ServiceClientError) as err:
            cancel_job(static_service.url, "no-such-job")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, static_service):
        from repro.service.server import _request

        with pytest.raises(ServiceClientError) as err:
            _request(f"{static_service.url}/nope")
        assert err.value.status == 404

    def test_invalid_kind_is_400(self, static_service):
        with pytest.raises(ServiceClientError) as err:
            submit_job(static_service.url, "nonsense")
        assert err.value.status == 400
        from repro.service.server import _request

        with pytest.raises(ServiceClientError) as err:
            _request(f"{static_service.url}/jobs", method="POST", payload={})
        assert err.value.status == 400


class TestShedding:
    def test_queue_full_is_429_with_reason(self, static_service):
        submit_job(static_service.url, "campaign", params=FAST)
        submit_job(static_service.url, "campaign", params=FAST)
        with pytest.raises(ServiceClientError) as err:
            submit_job(static_service.url, "campaign", params=FAST)
        assert err.value.status == 429
        assert err.value.payload["reason"] == "queue_full"
        assert err.value.payload["state"] == JobState.REJECTED

    def test_quarantined_tenant_is_403(self, static_service):
        admission = static_service.supervisor.admission
        admission.record_failure("bad")  # threshold=1 trips immediately
        with pytest.raises(ServiceClientError) as err:
            submit_job(
                static_service.url, "campaign", tenant="bad", params=FAST
            )
        assert err.value.status == 403
        assert err.value.payload["reason"] == "tenant_quarantined"

    def test_draining_is_503_and_health_reports_it(self, static_service):
        static_service.supervisor.request_drain()
        with pytest.raises(ServiceClientError) as err:
            submit_job(static_service.url, "campaign", params=FAST)
        assert err.value.status == 503
        assert err.value.payload["reason"] == "draining"
        assert health(static_service.url)["status"] == "draining"

    def test_rejections_are_jobs_too(self, static_service):
        # A shed submission still leaves an auditable rejected record.
        submit_job(static_service.url, "campaign", params=FAST)
        submit_job(static_service.url, "campaign", params=FAST)
        with pytest.raises(ServiceClientError):
            submit_job(static_service.url, "campaign", params=FAST)
        states = [j["state"] for j in list_jobs(static_service.url)]
        assert states.count(JobState.REJECTED) == 1
        assert states.count(JobState.QUEUED) == 2


def _raw_post(url, headers, body=b""):
    """POST /jobs with hand-set headers; returns (status, json body)."""
    import http.client
    import json
    import urllib.parse

    parsed = urllib.parse.urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=10)
    try:
        conn.putrequest("POST", "/jobs")
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


class TestRequestValidation:
    def test_job_id_path_traversal_rejected(self):
        for bad in ("../../etc/x", "..", ".", "a/b", "", "x" * 65, 7):
            with pytest.raises(ValueError, match="job_id"):
                JobSpec.from_dict({"kind": "campaign", "job_id": bad})
        assert JobSpec(kind="campaign", job_id="run-1.a_B").job_id == "run-1.a_B"

    def test_post_with_traversal_job_id_is_400(self, static_service, tmp_path):
        from repro.service.server import _request

        with pytest.raises(ServiceClientError) as err:
            _request(
                f"{static_service.url}/jobs", method="POST",
                payload={"kind": "campaign", "job_id": "../../etc/x"},
            )
        assert err.value.status == 400
        assert list_jobs(static_service.url) == []
        assert not (tmp_path / "etc").exists()

    def test_client_job_id_kept_and_duplicate_is_409(self, static_service):
        from repro.service.server import _request

        payload = {"kind": "campaign", "job_id": "mine-1", "params": FAST}
        rec = _request(f"{static_service.url}/jobs", method="POST",
                       payload=payload)
        assert rec["job_id"] == "mine-1"
        with pytest.raises(ServiceClientError) as err:
            _request(f"{static_service.url}/jobs", method="POST",
                     payload=payload)
        assert err.value.status == 409

    def test_malformed_content_length_is_400(self, static_service):
        status, body = _raw_post(
            static_service.url,
            {"Content-Type": "application/json", "Content-Length": "ten"},
        )
        assert status == 400
        assert "Content-Length" in body["error"]
        status, _ = _raw_post(static_service.url, {"Content-Length": "-5"})
        assert status == 400

    def test_oversized_body_is_413_without_reading_it(self, static_service):
        from repro.service.server import MAX_BODY_BYTES

        status, body = _raw_post(
            static_service.url,
            {"Content-Type": "application/json",
             "Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        # The server stays healthy for the next client.
        assert health(static_service.url)["status"] == "ok"
