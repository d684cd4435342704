"""Tests for the random-search baseline (``engine="random"``)."""

import numpy as np
import pytest

from repro.bo import EvaluationDatabase, EvaluationStatus
from repro.search import SamplerSearch, SearchSpec, run_search_spec
from repro.search.samplers import RandomSampler
from repro.space import ExpressionConstraint, Integer, Real, SearchSpace


def space():
    return SearchSpace([Real("a", 0.0, 1.0), Real("b", 0.0, 1.0)], name="rs")


def objective(cfg):
    return (cfg["a"] - 0.5) ** 2 + cfg["b"] + 0.1


def run(sp, obj, budget=None, seed=0, checkpoint=None,
        quarantine_threshold=None, quarantine_resolution=4, **options):
    spec = SearchSpec(
        sp, obj, engine="random", max_evaluations=budget,
        engine_options=options,
        quarantine_threshold=quarantine_threshold,
        quarantine_resolution=quarantine_resolution,
    )
    return run_search_spec(
        spec, np.random.SeedSequence(seed), checkpoint=checkpoint
    )


class TestBasics:
    def test_budget_and_best(self):
        r = run(space(), objective, budget=50)
        assert r.n_evaluations == 50
        assert r.engine == "random"
        assert 0.1 <= r.best_objective < 0.5
        assert r.best_objective == pytest.approx(objective(r.best_config), rel=1e-12)

    def test_default_budget(self):
        rs = SamplerSearch(space(), objective, RandomSampler())
        assert rs.max_evaluations == 20
        assert run(space(), objective).n_evaluations == 20

    def test_respects_constraints(self):
        sp = SearchSpace(
            [Integer("x", 0, 9), Integer("y", 0, 9)],
            [ExpressionConstraint("x + y <= 9")],
        )
        r = run(sp, lambda c: c["x"] + c["y"] + 1, budget=30)
        for rec in r.database:
            assert rec.config["x"] + rec.config["y"] <= 9

    def test_deterministic_given_seed(self):
        a = run(space(), objective, budget=20, seed=9)
        b = run(space(), objective, budget=20, seed=9)
        assert a.best_objective == b.best_objective

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerSearch(space(), objective, RandomSampler(), max_evaluations=0)
        with pytest.raises(ValueError):
            SamplerSearch(space(), objective, RandomSampler(), parallelism=0)


class TestParallelAccounting:
    def test_fully_parallel_time_is_max_cost(self):
        r = run(space(), objective, budget=40)
        costs = [rec.cost for rec in r.database]
        assert r.search_time == pytest.approx(max(costs))

    def test_limited_parallelism_interpolates(self):
        full = run(space(), objective, budget=40)
        p4 = run(space(), objective, budget=40, parallelism=4)
        p1 = run(space(), objective, budget=40, parallelism=1)
        total = sum(rec.cost for rec in p1.database)
        assert p1.search_time == pytest.approx(total)
        assert full.search_time < p4.search_time < p1.search_time
        # Greedy scheduling is near sum/slots for uniform-ish costs.
        assert p4.search_time >= total / 4

    def test_random_much_faster_than_sequential_same_budget(self):
        """The Table III effect: parallel random search's wall-clock is a
        tiny fraction of the sequential sum."""
        r = run(space(), objective, budget=100, seed=1)
        total = sum(rec.cost for rec in r.database)
        assert r.search_time < 0.05 * total


class TestFailures:
    def test_failing_objective_recorded(self):
        def flaky(cfg):
            if cfg["a"] > 0.8:
                raise RuntimeError("boom")
            return cfg["a"] + 0.1

        r = run(space(), flaky, budget=40)
        failed = [rec for rec in r.database if rec.status == EvaluationStatus.FAILED]
        assert failed
        assert r.best_config["a"] <= 0.8

    def test_timeout(self):
        def slow(cfg):
            return 1000.0 if cfg["a"] > 0.5 else 1.0

        r = run(space(), slow, budget=20, evaluation_timeout=10.0)
        tos = [rec for rec in r.database if rec.status == EvaluationStatus.TIMEOUT]
        assert tos
        assert all(rec.cost == 10.0 for rec in tos)
        assert r.best_objective == pytest.approx(1.0)


class PoisonedCorner:
    """Raises a permanent error in the quadrant ``a > 0.5, b > 0.5``.

    That quadrant is exactly one breaker cell at
    ``quarantine_resolution=2``, so with ``quarantine_threshold=2`` the
    breaker trips after the second poisoned record; proposals landing
    there are then vetoed and re-asked.  Kills after ``kill_after``
    calls.
    """

    def __init__(self, kill_after=None):
        self.kill_after = kill_after
        self.calls = 0

    def __call__(self, cfg):
        self.calls += 1
        if self.kill_after is not None and self.calls > self.kill_after:
            raise KeyboardInterrupt
        if cfg["a"] > 0.5 and cfg["b"] > 0.5:
            raise ValueError("poisoned region")
        return objective(cfg)


class TestQuarantineResume:
    def test_kill_and_resume_under_quarantine_is_bit_identical(self, tmp_path):
        """A resumed run whose breaker tripped *before* the kill continues
        on the same per-record streams as an uninterrupted one, so the
        quarantine redraws made before the crash cannot shift the tail."""
        budget, seed, kill_at = 40, 1, 20
        whole = run(space(), PoisonedCorner(), budget=budget, seed=seed,
                    quarantine_threshold=2, quarantine_resolution=2)
        assert whole.meta.get("quarantined"), "breaker must trip"
        first_trip = next(
            i for i in range(1, len(whole.database) + 1)
            if sum(not r.ok for r in whole.database.records[:i]) >= 2
        )
        assert first_trip < kill_at, "breaker must trip before the kill"
        assert whole.meta.get("quarantine_skipped", 0) > 0

        ck = tmp_path / "random.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run(space(), PoisonedCorner(kill_after=kill_at), budget=budget,
                seed=seed, checkpoint=str(ck), quarantine_threshold=2,
                quarantine_resolution=2)
        assert len(EvaluationDatabase(ck)) == kill_at
        resumed = run(space(), PoisonedCorner(), budget=budget, seed=seed,
                      checkpoint=str(ck), quarantine_threshold=2,
                      quarantine_resolution=2)
        key = [(r.config, repr(r.objective), r.cost, str(r.status))
               for r in whole.database]
        assert [(r.config, repr(r.objective), r.cost, str(r.status))
                for r in resumed.database] == key
        assert resumed.search_time == whole.search_time
