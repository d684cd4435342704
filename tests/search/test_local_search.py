"""Tests for the local-search baselines (``engine="hillclimb"`` / ``"anneal"``)."""

import numpy as np
import pytest

from repro.bo import EvaluationDatabase
from repro.search import SamplerSearch, SearchCampaign, SearchSpec, run_search_spec
from repro.search.samplers import (
    AnnealSampler,
    GridSampler,
    HillClimbSampler,
    RandomSampler,
)
from repro.space import ExpressionConstraint, Integer, Ordinal, SearchSpace


def discrete_space():
    return SearchSpace(
        [Integer("x", 0, 20), Integer("y", 0, 20)], name="local"
    )


def bowl(c):
    return (c["x"] - 13) ** 2 + (c["y"] - 6) ** 2 + 1.0


def run(engine, sp, obj, budget, seed, **options):
    spec = SearchSpec(
        sp, obj, engine=engine, max_evaluations=budget, engine_options=options
    )
    return run_search_spec(spec, np.random.SeedSequence(seed))


class TestHillClimbing:
    def test_descends_to_optimum(self):
        r = run("hillclimb", discrete_space(), bowl, 150, 0)
        assert r.best_objective == pytest.approx(1.0)
        assert r.best_config["x"] == 13 and r.best_config["y"] == 6

    def test_budget_respected(self):
        r = run("hillclimb", discrete_space(), bowl, 37, 0)
        assert r.n_evaluations <= 37 + 4  # may finish the neighbor scan

    def test_restarts_escape_local_minima(self):
        """A two-basin objective: restarts must eventually find the
        deeper basin."""
        def two_basins(c):
            a = (c["x"] - 3) ** 2 + (c["y"] - 3) ** 2 + 5.0
            b = (c["x"] - 17) ** 2 + (c["y"] - 17) ** 2 + 1.0
            return min(a, b)

        r = run("hillclimb", discrete_space(), two_basins, 400, 1)
        assert r.best_objective == pytest.approx(1.0)

    def test_respects_constraints(self):
        sp = SearchSpace(
            [Integer("x", 0, 20), Integer("y", 0, 20)],
            [ExpressionConstraint("x + y <= 20")],
        )
        r = run("hillclimb", sp, bowl, 120, 0)
        for rec in r.database:
            assert rec.config["x"] + rec.config["y"] <= 20

    def test_failures_skipped(self):
        def flaky(c):
            if c["x"] == 10:
                raise RuntimeError("boom")
            return bowl(c)

        r = run("hillclimb", discrete_space(), flaky, 120, 0)
        assert r.best_config["x"] != 10

    def test_search_time_is_sequential_sum(self):
        r = run("hillclimb", discrete_space(), bowl, 60, 0, parallelism=4)
        assert r.search_time == r.database.total_cost()

    def test_pinned_subspace_walks_kept_parameters(self):
        full = SearchSpace(
            [Integer("x", 0, 20), Integer("y", 0, 20), Integer("z", 0, 3)]
        )
        sub = full.subspace(["x", "y"], pinned={"z": 2}, name="xy")
        r = run("hillclimb", sub, bowl, 150, 0)
        assert r.best_objective == pytest.approx(1.0)
        assert all(rec.config["z"] == 2 for rec in r.database)


class TestSimulatedAnnealing:
    def test_finds_optimum_on_bowl(self):
        r = run("anneal", discrete_space(), bowl, 400, 0)
        assert r.best_objective <= 3.0  # near the basin floor

    def test_beats_or_matches_random(self):
        sa_best, rs_best = [], []
        for seed in range(3):
            sa = run("anneal", discrete_space(), bowl, 150, seed)
            rs = run("random", discrete_space(), bowl, 150, seed)
            sa_best.append(sa.best_objective)
            rs_best.append(rs.best_objective)
        assert np.mean(sa_best) <= np.mean(rs_best) + 1.0

    def test_temperature_schedule(self):
        sa = AnnealSampler(t_initial=1.0, t_final=0.01)
        sa.prepare(discrete_space(), np.random.SeedSequence(0), 100)
        assert sa.temperature(0) == pytest.approx(1.0)
        assert sa.temperature(99) == pytest.approx(0.01)
        assert sa.temperature(50) < sa.temperature(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSampler(t_initial=0.0)
        with pytest.raises(ValueError):
            AnnealSampler(t_initial=0.1, t_final=0.5)
        with pytest.raises(ValueError):
            SamplerSearch(discrete_space(), bowl, HillClimbSampler(),
                          max_evaluations=0)

    def test_ordinal_space(self):
        sp = SearchSpace([Ordinal("u", [1, 2, 4, 8, 16])], name="ord")
        r = run("anneal", sp, lambda c: abs(c["u"] - 8) + 1.0, 40, 0)
        assert r.best_config["u"] == 8


class _KillAfter:
    """Raises ``KeyboardInterrupt`` after ``n_calls`` evaluations."""

    def __init__(self, n_calls):
        self.n_calls = n_calls
        self.calls = 0

    def __call__(self, cfg):
        self.calls += 1
        if self.calls > self.n_calls:
            raise KeyboardInterrupt
        return bowl(cfg)


class TestCheckpointResume:
    def test_hillclimb_campaign_checkpoints_and_resumes(self, tmp_path):
        """A hill-climbing member writes its JSONL checkpoint under the
        campaign's ``checkpoint_dir`` and resumes bit-identically."""

        def campaign(objective, ck=None):
            spec = SearchSpec(discrete_space(), objective, engine="hillclimb",
                              max_evaluations=60)
            return SearchCampaign([spec], random_state=5,
                                  checkpoint_dir=ck).run()

        def key(result):
            return [(r.config, r.objective, r.cost, str(r.status))
                    for r in result.searches[0].database]

        whole = campaign(bowl)
        ck = tmp_path / "ck"
        with pytest.raises(KeyboardInterrupt):
            campaign(_KillAfter(25), ck)
        files = list(ck.glob("*.jsonl"))
        assert len(files) == 1
        assert len(EvaluationDatabase(files[0])) == 25
        resumed = campaign(bowl, ck)
        assert key(resumed) == key(whole)
        assert resumed.searches[0].search_time == whole.searches[0].search_time


def poisoned_quadrant(c):
    """``bowl`` with a permanent failure wherever ``x > 10 and y > 10``:
    one breaker cell at ``quarantine_resolution=2``."""
    if c["x"] > 10 and c["y"] > 10:
        raise ValueError("poisoned quadrant")
    return bowl(c)


class TestVetoedProposals:
    """A deterministic sampler is asked once per record: re-asking after a
    breaker veto would return the vetoed proposal again."""

    @staticmethod
    def counted(base, deterministic):
        class Counted(base):
            calls = 0

            def suggest(self, history, space, rng):
                type(self).calls += 1
                return super().suggest(history, space, rng)

        Counted.deterministic = deterministic
        return Counted

    def search(self, sampler_cls, budget):
        s = SamplerSearch(
            discrete_space(), poisoned_quadrant, sampler_cls(),
            max_evaluations=budget, quarantine_threshold=2,
            quarantine_resolution=2, random_state=0,
        )
        return s.run()

    @pytest.mark.parametrize("base,budget", [(HillClimbSampler, 200),
                                             (GridSampler, 120)])
    def test_one_ask_per_record_and_identical_records(self, base, budget):
        assert base.deterministic
        once = self.counted(base, True)
        reask = self.counted(base, False)  # the old 64-ask behaviour
        a = self.search(once, budget)
        b = self.search(reask, budget)
        assert a.meta.get("quarantined"), "breaker must trip"

        def key(r):
            return [(x.config, repr(x.objective), x.cost, str(x.status))
                    for x in r.database]

        assert key(a) == key(b)
        assert a.search_time == b.search_time
        assert once.calls == len(a.database)
        assert reask.calls > once.calls
        # Each veto of a sampler proposal counts once, not 64 times.
        assert 0 < a.meta["quarantine_skipped"] < b.meta["quarantine_skipped"]

    def test_stochastic_samplers_keep_re_asking(self):
        assert not AnnealSampler.deterministic
        assert not RandomSampler.deterministic
