"""Constraint handling for HPC search spaces.

Real HPC tuning spaces are heavily constrained — the paper's RT-TDDFT space
requires ``nstb * nkpb * nspb <= total_ranks`` and, per GPU kernel,
``tb * tb_sm <= max_active_threads_per_SM``.  The paper notes that how a BO
framework handles such constraints materially changes search cost; GPTune
filters candidates up front, which is the behaviour implemented here.

Two constraint flavors are supported:

:class:`Constraint`
    wraps a predicate ``config -> bool`` over full configurations, plus the
    subset of parameter names it reads (used for constraint-aware repair and
    for restricting checks to sub-spaces).
:class:`ExpressionConstraint`
    compiles a Python expression string (e.g. ``"tb * tb_sm <= 2048"``)
    evaluated against the configuration dict — convenient for declarative
    space definitions and for serializing spaces to JSON checkpoints.

Both check whole batches through :meth:`Constraint.mask`, which the
sampler calls once per constraint over per-parameter columns.  The base
implementation loops over rows, so opaque callables behave exactly as
they do under :meth:`Constraint.is_satisfied`; an expression evaluates
once over numpy columns and drops back to the row loop whenever numpy
could disagree with Python (see :meth:`ExpressionConstraint.mask`).
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .space import RepairStats

__all__ = [
    "Constraint",
    "ExpressionConstraint",
    "ConstraintViolation",
    "check_all",
]


class ConstraintViolation(ValueError):
    """Raised when a configuration violates a constraint and strict checking
    was requested."""

    def __init__(self, constraint: "Constraint", config: Mapping[str, Any]):
        self.constraint = constraint
        self.config = dict(config)
        super().__init__(f"configuration violates constraint {constraint.name!r}")


class Constraint:
    """A predicate over configurations.

    Parameters
    ----------
    fn:
        ``config -> bool``; must return ``True`` for feasible configurations.
        Receives the configuration as a plain dict.  Exceptions raised by the
        predicate are treated as *infeasible* (matching GPTune's behaviour of
        rejecting configurations its constraint lambdas cannot evaluate).
    names:
        Parameter names the predicate reads.  A constraint is only enforced
        when all its names are present in the configuration, which lets the
        same constraint set be reused across sub-spaces produced by the
        search planner.
    name:
        Human-readable label for diagnostics.
    """

    def __init__(
        self,
        fn: Callable[[Mapping[str, Any]], bool],
        names: Sequence[str],
        name: str = "",
    ):
        if not callable(fn):
            raise TypeError("constraint fn must be callable")
        self.fn = fn
        self.names = tuple(names)
        if not self.names:
            raise ValueError("constraint must declare the parameter names it reads")
        self.name = name or getattr(fn, "__name__", "constraint")

    def applies_to(self, available: Iterable[str]) -> bool:
        """True when every parameter the constraint reads is available."""
        avail = set(available)
        return all(n in avail for n in self.names)

    def is_satisfied(self, config: Mapping[str, Any]) -> bool:
        """Evaluate the predicate; exceptions count as infeasible."""
        if not self.applies_to(config.keys()):
            return True
        try:
            return bool(self.fn(config))
        except Exception:
            return False

    def mask(
        self, columns: Mapping[str, Any], n: int, *, stats: RepairStats | None = None
    ) -> np.ndarray:
        """Feasibility of ``n`` rows at once -> boolean array of shape ``(n,)``.

        ``columns`` maps a name to a ``list`` of ``n`` values, one per row,
        or to any other object, which is a value shared by every row (a
        subspace's pinned assignment).  Row ``i`` is feasible exactly when
        :meth:`is_satisfied` holds on the dict of row ``i``: the predicate
        sees every name in ``columns``, an exception counts as infeasible,
        and a constraint naming an absent parameter is idle.  ``stats``
        (a :class:`~repro.space.RepairStats`) counts columnar->row
        fallbacks; this row loop is the reference and counts nothing.
        """
        if not all(name in columns for name in self.names):
            return np.ones(n, dtype=bool)
        keys = list(columns)
        values = [columns[k] for k in keys]
        is_column = [isinstance(v, list) for v in values]
        out = np.empty(n, dtype=bool)
        for i in range(n):
            row = {k: v[i] if col else v for k, v, col in zip(keys, values, is_column)}
            try:
                out[i] = bool(self.fn(row))
            except Exception:
                out[i] = False
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Constraint({self.name!r}, names={list(self.names)})"


_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp, ast.And, ast.Or,
    ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.In, ast.NotIn,
    ast.Name, ast.Load, ast.Constant,
    ast.Tuple, ast.List,
    ast.Call,
)

_ALLOWED_FUNCS = {"min": min, "max": max, "abs": abs, "len": len, "int": int, "float": float}


def _validate_expression(tree: ast.Expression) -> list[str]:
    """Walk the AST, reject anything outside the arithmetic subset, and
    return the free variable names in order of first appearance."""
    names: list[ast.Name] = []
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"disallowed syntax in constraint expression: {type(node).__name__}"
            )
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_FUNCS):
                raise ValueError("only min/max/abs/len/int/float calls are allowed")
        if isinstance(node, ast.Name):
            if node.id not in _ALLOWED_FUNCS:
                names.append(node)
    names.sort(key=lambda node: (node.lineno, node.col_offset))
    return list(dict.fromkeys(node.id for node in names))


# ----------------------------------------------------------------------
# Columnar evaluation of expressions
# ----------------------------------------------------------------------
# Integers stay on the columnar path only while every intermediate is at
# most 2**53 in magnitude: int64 cannot overflow there, and int<->float
# conversions and mixed comparisons are exact, so numpy agrees with
# Python's arbitrary-precision ints bit for bit.
_EXACT_INT = 2**53


class _RowPath(Exception):
    """A columnar evaluation that must be redone row by row."""


# A compiled node maps the leaf environment to ``(value, kind, bound)``:
# ``kind`` is "b" (bool), "i" (int) or "f" (float), and ``bound`` caps
# ``abs(value)`` for ints.
_Node = Callable[[Mapping[str, tuple]], tuple]

_ARITH = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
}
_COMPARE = {
    ast.Eq: np.equal, ast.NotEq: np.not_equal, ast.Lt: np.less,
    ast.LtE: np.less_equal, ast.Gt: np.greater, ast.GtE: np.greater_equal,
}
_MIN_MAX = {"min": np.minimum, "max": np.maximum}


def _numeric(triple: tuple) -> tuple:
    """Booleans used as numbers are ints, as in Python."""
    value, kind, _ = triple
    if kind != "b":
        return triple
    if isinstance(value, np.ndarray):
        return value.astype(np.int64), "i", 1
    return int(value), "i", 1


def _checked(bound: float) -> float:
    """``bound`` of an integer, if it keeps the columnar path exact."""
    if bound > _EXACT_INT:
        raise _RowPath("integer magnitude beyond exact int64/float64 range")
    return bound


def _int_bound(op: type, a: int, b: int) -> float:
    """Upper bound on ``abs(x op y)`` for ints with ``abs(x) <= a``,
    ``abs(y) <= b`` (division by zero is caught by numpy)."""
    if op in (ast.Add, ast.Sub):
        return a + b
    if op is ast.Mult:
        return a * b
    if op is ast.FloorDiv:
        return a
    if op is ast.Mod:
        return b
    if a <= 1:  # Pow
        return 1
    return math.inf if b * math.log2(a) > 53 else a**b


def _leaf(value: Any) -> tuple:
    """Classify one column (a list) or shared value for columnar use."""
    if isinstance(value, list):
        arr = np.asarray(value)
        if arr.ndim != 1:
            raise _RowPath("column values are sequences")
        if arr.dtype == np.bool_:
            return arr, "b", 1
        if arr.dtype == np.int64:
            hi, lo = np.maximum.reduce(arr, initial=0), np.minimum.reduce(arr, initial=0)
            bound = max(int(hi), -int(lo))
            return arr, "i", _checked(bound)
        if (
            arr.dtype == np.float64
            and all(isinstance(v, float) for v in value)
            and not np.isnan(arr).any()
        ):
            return arr, "f", math.inf
        raise _RowPath("column is not uniformly int, float or bool")
    if isinstance(value, bool):
        return value, "b", 1
    if isinstance(value, int):
        return value, "i", _checked(abs(value))
    if isinstance(value, float) and not math.isnan(value):
        return value, "f", math.inf
    raise _RowPath("shared value is not a number")


def _compile_columnar(node: ast.AST, boolean: bool) -> _Node | None:
    """Compile one expression node to a numpy closure, or ``None`` when
    the node has no exact numpy counterpart.  ``boolean`` marks nodes whose
    value is only tested for truth, where ``and``/``or`` may become
    ``logical_and``/``logical_or``."""
    if isinstance(node, ast.Name):
        name = node.id
        if name in _ALLOWED_FUNCS:
            return None  # a function name used as a value
        return lambda env: env[name]
    if isinstance(node, ast.Constant):
        v = node.value
        if isinstance(v, bool):
            const = (v, "b", 1)
        elif isinstance(v, int) and abs(v) <= _EXACT_INT:
            const = (v, "i", abs(v))
        elif isinstance(v, float) and not math.isnan(v):
            const = (v, "f", math.inf)
        else:
            return None
        return lambda env: const
    if isinstance(node, ast.BoolOp):
        if not boolean:
            return None  # value-context and/or returns operands, not bools
        parts = [_compile_columnar(v, True) for v in node.values]
        if None in parts:
            return None
        combine = np.logical_and if isinstance(node.op, ast.And) else np.logical_or
        return lambda env: (
            functools.reduce(combine, [p(env)[0] for p in parts]), "b", 1
        )
    if isinstance(node, ast.UnaryOp):
        inner = _compile_columnar(node.operand, isinstance(node.op, ast.Not))
        if inner is None:
            return None
        if isinstance(node.op, ast.Not):
            return lambda env: (np.logical_not(inner(env)[0]), "b", 1)
        negate = isinstance(node.op, ast.USub)

        def unary(env):
            value, kind, bound = _numeric(inner(env))
            return (-value if negate else +value), kind, bound

        return unary
    if isinstance(node, ast.BinOp):
        return _compile_binop(node)
    if isinstance(node, ast.Compare):
        return _compile_compare(node)
    if isinstance(node, ast.Call):
        return _compile_call(node)
    return None  # a bare tuple/list


def _compile_binop(node: ast.BinOp) -> _Node | None:
    left = _compile_columnar(node.left, False)
    right = _compile_columnar(node.right, False)
    if left is None or right is None:
        return None
    op_type = type(node.op)
    fn = _ARITH[op_type]

    def binop(env):
        a, ak, ab = _numeric(left(env))
        b, bk, bb = _numeric(right(env))
        if op_type is ast.Pow and "f" in (ak, bk):
            raise _RowPath("float power")  # libm and SIMD pow may differ
        if op_type is ast.Div or "f" in (ak, bk):
            return fn(a, b), "f", math.inf
        bound = _checked(_int_bound(op_type, ab, bb))
        value = fn(a, b)
        # Python ints to a negative power give a float.
        return value, "f" if isinstance(value, float) else "i", bound

    return binop


def _compile_compare(node: ast.Compare) -> _Node | None:
    first = _compile_columnar(node.left, False)
    steps = []
    for i, (op, comp) in enumerate(zip(node.ops, node.comparators)):
        if isinstance(op, (ast.In, ast.NotIn)):
            # Membership over a literal tuple/list, last in the chain.
            if not isinstance(comp, (ast.Tuple, ast.List)) or i != len(node.ops) - 1:
                return None
            elements = [_compile_columnar(e, False) for e in comp.elts]
            if None in elements:
                return None
            steps.append((op, elements))
        elif isinstance(comp, (ast.Tuple, ast.List)):
            return None
        else:
            right = _compile_columnar(comp, False)
            if right is None:
                return None
            steps.append((op, right))
    if first is None:
        return None

    def compare(env):
        result = None
        left = _numeric(first(env))[0]
        for op, right in steps:
            if isinstance(op, (ast.In, ast.NotIn)):
                hits = [np.equal(left, _numeric(e(env))[0]) for e in right]
                r = functools.reduce(np.logical_or, hits, np.zeros(np.shape(left), bool))
                if isinstance(op, ast.NotIn):
                    r = np.logical_not(r)
            else:
                value = _numeric(right(env))[0]
                r = _COMPARE[type(op)](left, value)
                left = value
            result = r if result is None else np.logical_and(result, r)
        return result, "b", 1

    return compare


def _compile_call(node: ast.Call) -> _Node | None:
    func = node.func.id  # validated: one of _ALLOWED_FUNCS
    if node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
        return None
    args = [_compile_columnar(a, False) for a in node.args]
    if None in args:
        return None
    if func == "abs" and len(args) == 1:
        (arg,) = args

        def absolute(env):
            value, kind, bound = _numeric(arg(env))
            return np.abs(value), kind, bound

        return absolute
    if func in _MIN_MAX and len(args) >= 2:
        reduce = _MIN_MAX[func]

        def min_max(env):
            values = [_numeric(a(env)) for a in args]
            kind = "f" if any(k == "f" for _, k, _ in values) else "i"
            bound = max(b for _, _, b in values)
            return functools.reduce(reduce, [v for v, _, _ in values]), kind, bound

        return min_max
    return None  # len/int/float, or min/max over one iterable


class ExpressionConstraint(Constraint):
    """Constraint compiled from a restricted Python expression string.

    Example
    -------
    >>> c = ExpressionConstraint("tb * tb_sm <= 2048")
    >>> c.is_satisfied({"tb": 32, "tb_sm": 32})
    True
    >>> c.is_satisfied({"tb": 128, "tb_sm": 32})
    False

    Only arithmetic, comparisons, boolean operators, and ``min``/``max``/
    ``abs``/``len``/``int``/``float`` calls are accepted; this keeps the
    expression serializable and safe to re-load from JSON checkpoints.
    """

    def __init__(self, expression: str, name: str = ""):
        tree = ast.parse(expression, mode="eval")
        free = _validate_expression(tree)
        if not free:
            raise ValueError("constraint expression references no parameters")
        code = compile(tree, "<constraint>", "eval")

        def fn(config: Mapping[str, Any]) -> bool:
            env = dict(_ALLOWED_FUNCS)
            env.update({k: config[k] for k in free})
            return bool(eval(code, {"__builtins__": {}}, env))  # noqa: S307

        # ``names`` keeps first-appearance order: repair redraws a violated
        # constraint's parameters in this order.
        super().__init__(fn, free, name or expression)
        self.expression = expression
        self._columnar = _compile_columnar(tree.body, True)

    def mask(
        self, columns: Mapping[str, Any], n: int, *, stats: RepairStats | None = None
    ) -> np.ndarray:
        """Feasibility of ``n`` rows from one numpy evaluation.

        ``and``/``or``/``not``, chained comparisons, ``in`` over a literal
        tuple, ``min``/``max``/``abs`` and arithmetic map onto numpy
        column operations.  The batch is redone with the row loop of
        :meth:`Constraint.mask` (and one fallback is counted in ``stats``)
        when numpy could disagree with Python: a floating-point error
        (which Python would raise, making the row infeasible), a column
        that is not numeric, integers large enough to overflow int64, or
        syntax with no numpy counterpart (``len``/``int``/``float``,
        ``and``/``or`` used as values).
        """
        if not all(k in columns for k in self.names):
            return np.ones(n, dtype=bool)  # idle, as in is_satisfied
        if self._columnar is not None:
            try:
                env = {k: _leaf(columns[k]) for k in self.names}
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    value, kind, _ = self._columnar(env)
                ok = np.asarray(value)
                if kind != "b":
                    ok = ok != 0
                if ok.shape == (n,):
                    return ok
                return np.array(np.broadcast_to(ok, (n,)), dtype=bool)
            except (_RowPath, ArithmeticError, ValueError, TypeError):
                pass  # FloatingPointError is an ArithmeticError
        if stats is not None:
            stats.fallbacks += 1
        return super().mask(columns, n)

    def __reduce__(self):  # support pickling despite the closure
        return (ExpressionConstraint, (self.expression, self.name))


def check_all(
    constraints: Iterable[Constraint],
    config: Mapping[str, Any],
    *,
    strict: bool = False,
) -> bool:
    """Evaluate every applicable constraint against ``config``.

    With ``strict=True`` a :class:`ConstraintViolation` is raised on the
    first failing constraint instead of returning ``False``.
    """
    for c in constraints:
        if not c.is_satisfied(config):
            if strict:
                raise ConstraintViolation(c, config)
            return False
    return True
