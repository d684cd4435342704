"""The column sampler against a frozen copy of the row-path sampler.

``SearchSpace.sample_batch`` keeps each chunk as per-parameter columns
and checks constraints with one ``Constraint.mask`` call each (numpy for
``ExpressionConstraint``, a row loop for opaque callables).  It must stay
byte-identical to the dict-per-row sampler it replaced: same
configurations, same value types, same RNG state afterwards.  The old
sampler is kept below, verbatim in behaviour, as the reference.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.search import space_fingerprint
from repro.space import (
    Categorical,
    Condition,
    ConditionalSpace,
    Constraint,
    ExpressionConstraint,
    InfeasibleSpaceError,
    Integer,
    Ordinal,
    PinnedSubspace,
    Real,
    RepairStats,
    SearchSpace,
    check_all,
)

# ----------------------------------------------------------------------
# Frozen reference: the dict-per-row sampler
# ----------------------------------------------------------------------


def _ref_view(space, cfg):
    return space.complete(cfg) if isinstance(space, PinnedSubspace) else cfg


def _ref_ok(space, cfg):
    return check_all(space.constraints, _ref_view(space, cfg))


def _ref_raw(space, n, rng):
    columns = [p.sample_batch(n, rng) for p in space.parameters]
    rows = [dict(zip(space.names, row)) for row in zip(*columns)]
    if isinstance(space, ConditionalSpace):
        rows = [space.mask(cfg) for cfg in rows]
    return rows


def _ref_repair(space, configs, rng, rounds=40):
    pending = list(configs)
    for _ in range(rounds):
        broken = False
        for c in space.constraints:
            if not c.applies_to(space.names) and not isinstance(space, PinnedSubspace):
                continue
            bad = [cfg for cfg in pending if not c.is_satisfied(_ref_view(space, cfg))]
            if not bad:
                continue
            broken = True
            for name in [n for n in c.names if n in space]:
                vals = space[name].sample_batch(len(bad), rng)
                for cfg, v in zip(bad, vals):
                    cfg[name] = v
        if not broken:
            break
    else:
        pending = [cfg for cfg in pending if _ref_ok(space, cfg)]
    if isinstance(space, ConditionalSpace):
        masked = [space.mask(cfg) for cfg in pending]
        pending = [cfg for cfg in masked if check_all(space.constraints, cfg)]
    return pending


def reference_sample_batch(space, n, rng, *, unique=False, max_rejects=10_000):
    out, seen, attempts, chunk = [], set(), 0, max(64, 2 * n)
    while len(out) < n and attempts < max_rejects:
        take = min(chunk, max_rejects - attempts)
        attempts += take
        raw = _ref_raw(space, take, rng)
        valid = [cfg for cfg in raw if _ref_ok(space, cfg)]
        if len(valid) < min(take, n - len(out)):
            invalid = [cfg for cfg in raw if not _ref_ok(space, cfg)]
            valid.extend(_ref_repair(space, invalid, rng))
        for cfg in valid:
            if unique:
                key = tuple(cfg[k] for k in space.names)
                if key in seen:
                    continue
                seen.add(key)
            out.append(cfg)
            if len(out) >= n:
                break
        chunk = min(4 * chunk, 8192)
    if not out:
        raise InfeasibleSpaceError(f"could not sample any configuration for {space.name!r}")
    return out


def _typed(configs):
    """Configurations with value types, so 1 != 1.0 and -0.0 != 0.0."""
    return [[(k, type(v).__name__, repr(v)) for k, v in cfg.items()] for cfg in configs]


def assert_same_sampler(space, n, seed, *, unique=False, max_rejects=400):
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    try:
        expected = reference_sample_batch(
            space, n, rng_ref, unique=unique, max_rejects=max_rejects
        )
    except InfeasibleSpaceError:
        with pytest.raises(InfeasibleSpaceError):
            space.sample_batch(n, rng_new, unique=unique, max_rejects=max_rejects)
        return
    got = space.sample_batch(n, rng_new, unique=unique, max_rejects=max_rejects)
    assert _typed(got) == _typed(expected)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# ----------------------------------------------------------------------
# Random spaces and constraints
# ----------------------------------------------------------------------

NUMERIC = ["i0", "i1", "o0", "r0", "b0"]


def _parameters():
    return [
        Integer("i0", -6, 9, default=0),
        Integer("i1", 0, 40, default=3),
        Ordinal("o0", [1, 2, 4, 8, 2**40], default=2),
        Real("r0", -2.0, 3.0, default=0.5),
        Categorical("b0", [True, False], default=True),
        Categorical("mode", ["a", "b", "c"], default="a"),
        Ordinal("mixed", [0, 0.5, 3], default=0),
    ]


_atoms = st.one_of(
    st.sampled_from(NUMERIC + ["mixed"]),
    st.integers(-5, 12).map(str),
    st.sampled_from(["0", "0.5", "-1.25", "10**18", "2**62", "3.0e300", "True"]),
)


def _extend(children):
    binary = st.tuples(
        children, st.sampled_from(["+", "-", "*", "/", "//", "%"]), children
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    power = st.tuples(children, st.sampled_from(["0", "1", "2", "3", "-1", "0.5"])).map(
        lambda t: f"({t[0]} ** {t[1]})"
    )
    calls = st.one_of(
        children.map(lambda a: f"abs({a})"),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(children, min_size=2, max_size=3))
        .map(lambda t: f"{t[0]}({', '.join(t[1])})"),
    )
    return st.one_of(binary, power, calls, children.map(lambda a: f"(-{a})"))


_values = st.recursive(_atoms, _extend, max_leaves=6)


def _comparison():
    chain = st.tuples(
        _values,
        st.lists(
            st.tuples(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), _values),
            min_size=1,
            max_size=2,
        ),
    ).map(lambda t: t[0] + "".join(f" {op} {v}" for op, v in t[1]))
    membership = st.tuples(
        _values,
        st.sampled_from(["in", "not in"]),
        st.lists(_values, min_size=0, max_size=3),
    ).map(lambda t: f"{t[0]} {t[1]} ({''.join(v + ', ' for v in t[2])})")
    # Forms with no numpy counterpart always take the row path.
    row_only = st.sampled_from(
        ["mode == 'b' or i0 > 2", "int(r0 * 3) != i0", "(i0 or r0) > 1", "len((i0, 1)) == 2"]
    )
    return st.one_of(chain, membership, _values, row_only)


def _boolean(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["and", "or"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        children.map(lambda a: f"(not {a})"),
    )


expressions = st.recursive(_comparison(), _boolean, max_leaves=4).filter(
    lambda e: any(name in e for name in NUMERIC + ["mixed", "mode"])
)


def _opaque(kind):
    if kind == 0:
        return Constraint(lambda c: (c["i0"] + c["i1"]) % 3 != 0, names=("i1", "i0"))
    if kind == 1:  # raises on some rows -> those rows are infeasible
        return Constraint(lambda c: 10 // c["i0"] < 4, names=("i0",), name="div")
    return Constraint(lambda c: c["mode"] != "c" or c["r0"] > 0, names=("mode", "r0"))


@st.composite
def constraint_lists(draw):
    out = []
    for expr in draw(st.lists(expressions, min_size=0, max_size=3)):
        out.append(ExpressionConstraint(expr))
    for kind in draw(st.lists(st.integers(0, 2), max_size=2)):
        out.append(_opaque(kind))
    return draw(st.permutations(out))


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
_draws = st.tuples(st.integers(1, 70), st.integers(0, 2**32 - 1), st.booleans())


class TestMatchesRowPathSampler:
    @_SETTINGS
    @given(constraints=constraint_lists(), draw=_draws)
    def test_flat_space(self, constraints, draw):
        n, seed, unique = draw
        space = SearchSpace(_parameters(), constraints, name="flat")
        assert_same_sampler(space, n, seed, unique=unique)

    @_SETTINGS
    @given(
        constraints=constraint_lists(),
        draw=_draws,
        kept=st.lists(st.sampled_from(NUMERIC + ["mode", "mixed"]), min_size=1, unique=True),
        pin_seed=st.integers(0, 1000),
    )
    def test_pinned_subspace(self, constraints, draw, kept, pin_seed):
        n, seed, unique = draw
        full = SearchSpace(_parameters(), constraints, name="full")
        pin_rng = np.random.default_rng(pin_seed)
        pins = {p.name: p.sample(pin_rng) for p in full.parameters}
        sub = full.subspace(kept, pinned=pins)
        assert_same_sampler(sub, n, seed, unique=unique)

    @_SETTINGS
    @given(constraints=constraint_lists(), draw=_draws, chained=st.booleans())
    def test_conditional_space(self, constraints, draw, chained):
        n, seed, unique = draw
        conditions = {"i1": Condition("mode", ["a", "c"]), "r0": Condition("mode", "b")}
        if chained:
            conditions["o0"] = Condition("i1", list(range(0, 20)))
        params = _parameters()
        order = ["mode", "i1", "i0", "o0", "r0", "b0", "mixed"]
        params.sort(key=lambda p: order.index(p.name))
        space = ConditionalSpace(params, constraints, conditions, name="cond")
        assert_same_sampler(space, n, seed, unique=unique)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", [1, 2])
    def test_rt_tddft_spaces(self, case, seed):
        from repro.tddft import RTTDDFTApplication, case_study

        app = RTTDDFTApplication(case_study(case))
        space = app.search_space()
        assert_same_sampler(space, 32, seed)
        for r in app.routines():
            sub = space.subspace(list(r.parameters))
            assert_same_sampler(sub, 17, seed, unique=True)


# ----------------------------------------------------------------------
# ExpressionConstraint.mask against the row predicate
# ----------------------------------------------------------------------


def _row_mask(c, columns, n):
    rows = [
        {k: v[i] if isinstance(v, list) else v for k, v in columns.items()}
        for i in range(n)
    ]
    return np.array([c.is_satisfied(r) for r in rows], dtype=bool)


class TestExpressionMask:
    @_SETTINGS
    @given(expr=expressions, seed=st.integers(0, 2**32 - 1), pin=st.booleans())
    def test_mask_equals_is_satisfied(self, expr, seed, pin):
        c = ExpressionConstraint(expr)
        space = SearchSpace(_parameters())
        rng = np.random.default_rng(seed)
        n = 40
        columns = {p.name: p.sample_batch(n, rng) for p in space.parameters}
        if pin:  # shared values enter as scalars
            columns["i0"] = columns["i0"][0]
            columns["r0"] = columns["r0"][0]
        got = c.mask(columns, n)
        assert got.dtype == bool and got.shape == (n,)
        np.testing.assert_array_equal(got, _row_mask(c, columns, n))

    def test_names_follow_first_appearance(self):
        c = ExpressionConstraint("tb_zcopy * tb_sm_zcopy <= 2048 and nstb + nkpb < 3")
        assert c.names == ("tb_zcopy", "tb_sm_zcopy", "nstb", "nkpb")
        assert ExpressionConstraint("b + a * b > c").names == ("b", "a", "c")

    @pytest.mark.parametrize(
        "expr, columns",
        [
            ("10 // a > 1", {"a": [1, 0, 5]}),  # floating-point error
            ("a * b < 5", {"a": [2**40, 1, 2], "b": [2**40, 1, 2]}),  # int64 overflow
            ("a + 0 < 5", {"a": [2**70, 1, 2]}),  # beyond int64 altogether
            ("a == 'x' or b > 0", {"a": ["x", "y", "z"], "b": [1, 0, 1]}),  # strings
            ("a < 2", {"a": [1, 2.5, 3]}),  # ints and floats in one column
            ("int(a) > 1", {"a": [1.5, 2.5, 0.5]}),  # no numpy counterpart
        ],
    )
    def test_fallbacks_are_counted_and_exact(self, expr, columns):
        c = ExpressionConstraint(expr)
        stats = RepairStats()
        got = c.mask(columns, 3, stats=stats)
        np.testing.assert_array_equal(got, _row_mask(c, columns, 3))
        assert stats.fallbacks == 1

    def test_columnar_path_counts_nothing(self):
        stats = RepairStats()
        c = ExpressionConstraint("0 < a <= 3 and b in (1, 4) or not max(a, b) > 2")
        got = c.mask({"a": [1, 3, 7, 0], "b": 4}, 4, stats=stats)
        np.testing.assert_array_equal(got, [True, True, False, False])
        assert stats.fallbacks == 0

    def test_opaque_row_path_sees_full_rows(self):
        seen = []
        c = Constraint(lambda cfg: seen.append(dict(cfg)) or cfg["a"] > 1, names=("a",))
        got = c.mask({"p": 9, "a": [1, 2]}, 2)
        np.testing.assert_array_equal(got, [False, True])
        assert seen == [{"p": 9, "a": 1}, {"p": 9, "a": 2}]

    def test_idle_when_a_name_is_absent(self):
        c = ExpressionConstraint("a + b < 0")
        assert c.mask({"a": [1, 2]}, 2).all()


# ----------------------------------------------------------------------
# Repair statistics and fail-fast infeasibility
# ----------------------------------------------------------------------


def _occupancy():
    params, cons = [], []
    for k in range(3):
        params += [Integer(f"tb{k}", 32, 1024), Integer(f"sm{k}", 1, 32)]
        cons.append(ExpressionConstraint(f"tb{k} * sm{k} <= 2048"))
    return SearchSpace(params, cons, name="occ")


class TestRepairStats:
    def test_unconstrained_sampling_does_no_repair(self):
        space = SearchSpace([Integer("a", 0, 9), Real("x", 0.0, 1.0)])
        space.sample_batch(100, np.random.default_rng(0))
        assert space.repair_stats.rounds == 0
        assert space.repair_stats.redrawn == 0
        assert space.repair_stats.dropped == 0
        assert space.repair_stats.fallbacks == 0

    def test_repair_rounds_and_redraws_accumulate(self):
        space = _occupancy()
        space.sample_batch(50, np.random.default_rng(1))
        first = (space.repair_stats.rounds, space.repair_stats.redrawn)
        assert first[0] > 0 and first[1] > 0
        assert space.repair_stats.dropped == 0
        assert space.repair_stats.fallbacks == 0
        space.sample_batch(50, np.random.default_rng(2))
        assert space.repair_stats.rounds > first[0]
        assert space.repair_stats.redrawn > first[1]

    def test_redraws_are_two_values_per_bad_row(self):
        space = SearchSpace(
            [Integer("a", 0, 100), Integer("b", 0, 100)],
            [ExpressionConstraint("a + b <= 20")],
        )
        space.sample_batch(10, np.random.default_rng(3))
        assert space.repair_stats.redrawn > 0
        assert space.repair_stats.redrawn % 2 == 0

    def test_rows_past_the_round_budget_are_counted_as_dropped(self):
        space = SearchSpace(
            [Integer("a", 0, 400), Integer("b", 0, 400)],
            [ExpressionConstraint("a + b == 400")],
        )
        out = space.sample_batch(64, np.random.default_rng(4))
        stats = space.repair_stats
        assert stats.dropped > 0
        # Every repaired chunk spent its whole budget of 40 rounds.
        assert stats.rounds >= 40 and stats.rounds % 40 == 0
        assert len(out) <= 64

    def test_opaque_constraints_are_not_fallbacks(self):
        space = SearchSpace(
            [Integer("p", 1, 64), Integer("q", 1, 64)],
            [Constraint(lambda c: c["p"] % c["q"] == 0, names=("p", "q"))],
        )
        space.sample_batch(20, np.random.default_rng(5))
        assert space.repair_stats.fallbacks == 0

    def test_expression_fallbacks_are_counted(self):
        space = SearchSpace(
            [Integer("a", 0, 4), Integer("b", 0, 9)],
            [ExpressionConstraint("b // a >= 2")],  # a == 0 divides by zero
        )
        out = space.sample_batch(20, np.random.default_rng(6))
        assert all(c["a"] != 0 and c["b"] // c["a"] >= 2 for c in out)
        assert space.repair_stats.fallbacks > 0

    def test_stats_stay_out_of_fingerprints_and_bo_meta(self):
        from repro.bo import BayesianOptimizer

        space = _occupancy()
        before = space_fingerprint(space)
        opt = BayesianOptimizer(
            space,
            lambda c: float(c["tb0"] * c["sm0"]) / 2048.0,
            n_initial=3,
            max_evaluations=5,
            n_candidates=16,
            random_state=0,
        )
        result = opt.run()
        assert space.repair_stats.rounds > 0
        assert space_fingerprint(space) == before
        text = repr(result.meta)
        for field in ("repair", "rounds", "redrawn", "dropped", "fallbacks"):
            assert field not in text


class TestPinnedInfeasibility:
    def _sub(self):
        full = SearchSpace(
            [Integer("a", 1, 8), Integer("b", 1, 8), Integer("c", 1, 8)],
            [ExpressionConstraint("a * b <= 4"), ExpressionConstraint("b + c < 9")],
        )
        return full.subspace(["c"], pinned={"a": 4, "b": 2})

    def test_raises_before_drawing_anything(self):
        sub = self._sub()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InfeasibleSpaceError, match="a \\* b <= 4"):
            sub.sample_batch(5, rng)
        assert rng.bit_generator.state == state
        assert sub.repair_stats.rounds == 0

    def test_sample_reports_the_same_error(self):
        with pytest.raises(InfeasibleSpaceError):
            self._sub().sample(np.random.default_rng(0))

    def test_satisfied_pinned_constraints_are_harmless(self):
        full = SearchSpace(
            [Integer("a", 1, 8), Integer("b", 1, 8), Integer("c", 1, 8)],
            [ExpressionConstraint("a * b <= 4"), ExpressionConstraint("b + c < 9")],
        )
        sub = full.subspace(["c"], pinned={"a": 2, "b": 2})
        out = sub.sample_batch(30, np.random.default_rng(1))
        assert all(sub.is_valid(c) for c in out)


# ----------------------------------------------------------------------
# Golden: RT-TDDFT candidate pools are unchanged
# ----------------------------------------------------------------------


def _pool_digest(space, seed, n=48):
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for batch in (space.sample_batch(n, rng), space.sample_batch(n, rng, unique=True)):
        h.update(repr(_typed(batch)).encode())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()[:16]


def _tddft_planner_spaces():
    from repro.core import SearchPlanner, TuningMethodology
    from repro.tddft import RTTDDFTApplication, case_study

    app = RTTDDFTApplication(case_study(1), random_state=0)
    space = app.search_space()
    tm = TuningMethodology(
        space,
        app.routines(),
        cutoff=0.10,
        n_variations=2,
        n_baselines=2,
        variation_mode="random",
        hierarchy=app.hierarchy(),
        random_state=0,
    )
    res = tm.analyze()
    planner = SearchPlanner(
        app.routines(), res.influence, space, cutoff=0.10,
        insights=res.insights, hierarchy=app.hierarchy(),
    )
    subs = [(s.name, sub) for s, sub, _ in planner.materialize(res.plan)]
    return [("full", space)] + subs


# Recorded with the dict-per-row sampler, before the column sampler.
GOLDEN = {
    0: {
        "full": "7e46b1a62f7fb508",
        "MPI Grid": "f590e88b9ad0f057",
        "Slater Determinant": "0dbef254d6be6efe",
        "Group 1": "3f7d578151ed5f2d",
        "Group 2+Group 3": "b16cce075d681b6f",
    },
    1: {
        "full": "0548aca7e456ef24",
        "MPI Grid": "449ac592ca522fb1",
        "Slater Determinant": "8f83e6b07c32ae30",
        "Group 1": "f2f665197e7a1d95",
        "Group 2+Group 3": "239b7460d7a10d02",
    },
    7: {
        "full": "ca17229abbd6e99c",
        "MPI Grid": "56c454dcafb23fc6",
        "Slater Determinant": "0c3b9826eb7f3de2",
        "Group 1": "3569087805d0e2bb",
        "Group 2+Group 3": "aeea5e7606a47b82",
    },
}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_rt_tddft_candidate_pools_are_golden(seed):
    digests = {
        name: _pool_digest(space, seed) for name, space in _tddft_planner_spaces()
    }
    assert digests == GOLDEN[seed]
