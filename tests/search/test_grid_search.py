"""Tests for the grid-search baseline (``engine="grid"``)."""

import hashlib

import numpy as np
import pytest

from repro.search import SearchSpec, run_search_spec
from repro.search.samplers import GridSampler
from repro.space import (
    Categorical,
    Condition,
    ConditionalSpace,
    ExpressionConstraint,
    Integer,
    Ordinal,
    Real,
    SearchSpace,
)


def small_space():
    return SearchSpace([Integer("x", 0, 4), Integer("y", 0, 4)], name="gs")


def run(sp, obj, budget=None, **options):
    spec = SearchSpec(
        sp, obj, engine="grid", max_evaluations=budget, engine_options=options
    )
    return run_search_spec(spec, np.random.SeedSequence(0))


def grid_points(sp, budget, **options):
    sampler = GridSampler(**options)
    sampler.prepare(sp, np.random.SeedSequence(0), budget)
    return sampler._points


class TestExhaustive:
    def test_finds_exact_optimum(self):
        r = run(small_space(),
                lambda c: (c["x"] - 3) ** 2 + (c["y"] - 1) ** 2 + 1, budget=25)
        assert r.best_config["x"] == 3 and r.best_config["y"] == 1
        assert r.best_objective == 1
        assert r.n_evaluations == 25

    def test_grid_size(self):
        # A budget at least the grid's size enumerates all 25 points, then
        # the exhausted sampler ends the search early.
        assert len(grid_points(small_space(), 1000)) == 25
        assert run(small_space(), lambda c: 1.0, budget=1000).n_evaluations == 25

    def test_constraints_skipped_not_counted_as_best(self):
        sp = SearchSpace(
            [Integer("x", 0, 4), Integer("y", 0, 4)],
            [ExpressionConstraint("x + y >= 2")],
        )
        r = run(sp, lambda c: c["x"] + c["y"] + 0.5, budget=25)
        assert r.best_objective == pytest.approx(2.5)

    def test_continuous_axes_discretized(self):
        sp = SearchSpace([Real("a", 0.0, 1.0)])
        assert len(grid_points(sp, 100, points_per_axis=4)) == 4
        r = run(sp, lambda c: abs(c["a"] - 0.33) + 0.1, budget=100,
                points_per_axis=4)
        assert r.best_config["a"] == pytest.approx(1 / 3, abs=0.01)


class TestBudgeted:
    def test_strided_subset(self):
        r = run(small_space(), lambda c: c["x"] + c["y"] + 1, budget=10)
        assert r.n_evaluations <= 10

    def test_infeasible_grid_raises(self):
        sp = SearchSpace(
            [Integer("x", 0, 4)], [ExpressionConstraint("x > 100")]
        )
        with pytest.raises(RuntimeError, match="no feasible"):
            run(sp, lambda c: 1.0, budget=10)

    def test_huge_grid_is_strided_without_full_enumeration(self):
        # 10^12 raw points: the stride is decoded per index, so building
        # a 50-point design never walks the whole product.
        sp = SearchSpace([Integer(f"p{i}", 0, 9) for i in range(12)])
        points = grid_points(sp, 50)
        assert len(points) == 50
        assert points[1] == {**points[0], "p1": 2}


class TestValidation:
    def test_points_per_axis(self):
        with pytest.raises(ValueError):
            GridSampler(points_per_axis=1)
        with pytest.raises(ValueError):
            run(small_space(), lambda c: 1.0, budget=10, points_per_axis=1)

    def test_failures_recorded(self):
        def flaky(c):
            if c["x"] == 2:
                raise RuntimeError("boom")
            return float(c["x"] + c["y"] + 1)

        r = run(small_space(), flaky, budget=25)
        assert r.best_config["x"] != 2
        assert any(not rec.ok for rec in r.database)

    def test_ordinal_axes_native_grid(self):
        sp = SearchSpace([Ordinal("u", [1, 2, 4, 8])])
        r = run(sp, lambda c: 1.0 / c["u"], budget=10)
        assert r.best_config["u"] == 8
        assert r.n_evaluations == 4


# ----------------------------------------------------------------------
# Golden digests: records, search time and best of the strided grid,
# recorded with the grid engine's original standalone loop.  The
# enumeration, feasibility filter, early stop and makespan accounting
# must reproduce them exactly.
# ----------------------------------------------------------------------

def _flat():
    return SearchSpace([Real("a", 0.0, 1.0), Integer("n", 1, 9),
                        Categorical("alg", ("x", "y", "z"))], name="flat")


def _pinned():
    full = SearchSpace(
        [Real("a", 0.0, 1.0), Integer("n", 1, 9), Integer("m", 0, 5),
         Ordinal("u", [1, 2, 4, 8])],
        [ExpressionConstraint("n + m <= 10")], name="full",
    )
    return full.subspace(["a", "n", "u"], pinned={"m": 4}, name="pinned")


def _constrained():
    return SearchSpace([Real("a", 0.0, 1.0), Integer("n", 0, 12),
                        Categorical("alg", ("p", "q"))],
                       [ExpressionConstraint("n <= 4 + 8 * a")],
                       name="constrained")


def _conditional():
    return ConditionalSpace(
        [Categorical("mode", ("flat", "deep")), Integer("depth", 1, 4),
         Integer("width", 2, 8), Real("x", 0.0, 1.0)],
        conditions={"depth": Condition("mode", ("deep",)),
                    "width": Condition("mode", ("deep",))},
        name="conditional",
    )


SPACES = {"flat": _flat, "pinned": _pinned, "constrained": _constrained,
          "conditional": _conditional}


def _objective(cfg):
    total = 0.25
    for k in sorted(cfg):
        v = cfg[k]
        if isinstance(v, str):
            total += 0.1 * (ord(v[0]) % 5)
        else:
            total += (float(v) - 0.4) ** 2 / (1.0 + len(k))
    return total


def _digest(result):
    h = hashlib.sha256()
    for rec in result.database:
        h.update(repr((sorted(rec.config.items()), repr(rec.objective),
                       repr(rec.cost), str(rec.status))).encode())
    h.update(repr((result.search_time, result.best_objective,
                   sorted(result.best_config.items()))).encode())
    return h.hexdigest()


GOLDEN = {
    ("flat", 10, None): "0f89219be014e2b030c6ccfa50587506d9f7ac0e4557a8ea2a166b6d870f5b0c",
    ("flat", 10, 3): "e857da2aa86dc2164dde6aa5e4db99fb91831e9679c418125b0800a685b7f4d1",
    ("flat", 25, None): "06c4add26b9e43fd733a10d6aa9821da8eceb696689776923be8c6d5bc4233bf",
    ("flat", 25, 3): "49b33d30fb531646ef6facc69c4893f2759c15acd98d0fff7d64931761f70216",
    ("flat", 60, None): "0fac1ad29a9659a185c29ef3b5af25bb8d46e6c29ee06ac3fdb90a2a44f40fea",
    ("flat", 60, 3): "9aac1f4b67b5dd8a6432cc5a5d843008ceab91368cbc4f11bca6b7c2852f55c6",
    ("pinned", 10, None): "068e0648dbca0cfbb5a491b47189d5383418a06d327357c8e551276b70b8dd62",
    ("pinned", 10, 3): "498b3189a056a24c9f5ee53ed44b53e19263a27987a2f2802ea1dad826982bbb",
    ("pinned", 25, None): "8b7d2b98e08ac20fb146b57f823771202c025be843d3be8b73a08cb547c3961a",
    ("pinned", 25, 3): "f41f1f90b3378d4929c85354aff507adfd895c6ed454cd383dce8df33595e0a2",
    ("pinned", 60, None): "4943f656a6367b4bf6d8ab13bab6ba86072ed131021493f98d62b358e3f412c8",
    ("pinned", 60, 3): "a28aeebafbf3d63ab7fe263b52b47d27e8e6c40dccc68203f031b86e12025818",
    ("constrained", 10, None): "364265a5beeebcb3725e188d1d4622449e88cfd892bb94e2c490d3ff8e98cdda",
    ("constrained", 10, 3): "ace7f1bf98ad73c71a0c82ac18e825921a3a57fbd056acb37ccfa13bdc2c15c5",
    ("constrained", 25, None): "1dd72517b49b8c91553131786a246173234b64d784af13c09b26dd55271faa2e",
    ("constrained", 25, 3): "ffad2ec8e55164f2a9dddf7a376165df01fad446cbec25732ece449b7bb3dfbc",
    ("constrained", 60, None): "484e9d816c0026a35a4e51d39b6791286f9817686ff847f9daf992147846c24d",
    ("constrained", 60, 3): "e243a37a1630fd491b879c7b500adf8bcf5fd666e8132a37ed0393fa87f02a89",
    ("conditional", 10, None): "cc1f1d7900e5542148ce97b7420eb6d95e1b0845ca677b069051b2d45b911ce6",
    ("conditional", 10, 3): "543d8ff8d5c951b4ed2698d8b6c85fc936754a1365f493c27c58744162f498f5",
    ("conditional", 25, None): "70b5e0af45bc88f0b5fa59f8b8d4aec917b715c0ccea783bb17408d1e208c0e2",
    ("conditional", 25, 3): "17cda4042102f10d7e7ae0712ac2753ee3f3ae1b8df26e9f20b54b0f9445a534",
    ("conditional", 60, None): "46bd978ff4824b899e14e28e11b545bbb09c97d0b39312a74765fba12cff052b",
    ("conditional", 60, 3): "28fc54feaa1406c2e55de7ad64c9a47767c823fdd69bb1b9ee2ba06e24cdc74d",
}


@pytest.mark.parametrize("label,budget,parallelism", sorted(GOLDEN, key=str))
def test_golden_grid_records(label, budget, parallelism):
    options = {} if parallelism is None else {"parallelism": parallelism}
    r = run(SPACES[label](), _objective, budget=budget, **options)
    assert _digest(r) == GOLDEN[(label, budget, parallelism)]
