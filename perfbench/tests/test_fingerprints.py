"""The service workload's correctness check."""

import copy

from perfbench.service_mix import check_jobs, job_specs, spec_key


def _records(specs, ids):
    return {
        job: {"state": "done", "result": {"fingerprint": "fp-" + spec_key(spec)}}
        for job, spec in zip(ids, specs)
    }


def _fixture():
    specs = job_specs(seed=3, n=6)
    ids = [f"j{i}" for i in range(len(specs))]
    refs = {spec_key(s): "fp-" + spec_key(s) for s in specs}
    return specs, ids, refs, _records(specs, ids)


def test_twins_repeat_the_previous_spec():
    specs = job_specs(seed=3, n=6)
    assert specs[1] == specs[0] and specs[3] == specs[2]
    assert specs[2] != specs[0]
    assert job_specs(seed=3, n=6) == specs


def test_matching_fingerprints_pass():
    specs, ids, refs, records = _fixture()
    assert check_jobs(records, ids, refs, specs) == []


def test_altered_result_fails_the_check():
    specs, ids, refs, records = _fixture()
    altered = copy.deepcopy(records)
    altered["j3"]["result"]["fingerprint"] = "tampered"
    problems = check_jobs(altered, ids, refs, specs)
    assert any("j3" in p and "reference" in p for p in problems)
    assert any("twin" in p for p in problems)


def test_wrong_reference_fails_the_check():
    specs, ids, refs, records = _fixture()
    refs[spec_key(specs[4])] = "other"
    problems = check_jobs(records, ids, refs, specs)
    assert len([p for p in problems if "reference" in p]) == 2


def test_job_not_done_fails_the_check():
    specs, ids, refs, records = _fixture()
    records["j0"] = {"state": "failed", "result": None}
    assert any("ended failed" in p for p in check_jobs(records, ids, refs, specs))
