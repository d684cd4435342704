"""The :class:`SearchSpace` container: parameters + constraints.

A search space owns an ordered list of parameters and a list of constraints,
and provides the primitives every engine in this package builds on:

* constrained uniform sampling (rejection with a retry budget),
* encode/decode between configuration dicts and points in ``[0, 1]^d``
  (the representation the GP surrogate operates on),
* sub-space projection (``subspace``) used by the search planner when it
  splits or merges routine searches and pins dropped parameters,
* neighborhood enumeration for local acquisition refinement,
* cardinality accounting used to report the paper's Table IV space sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .constraints import Constraint, check_all
from .parameters import Parameter, Real

__all__ = ["SearchSpace", "InfeasibleSpaceError", "RepairStats"]


class InfeasibleSpaceError(RuntimeError):
    """Raised when rejection sampling cannot find a feasible configuration
    within the retry budget — usually a sign of over-aggressive constraints,
    which the paper warns 'could confine the search within local minima and
    create additional overhead'."""


@dataclass
class RepairStats:
    """Cumulative counts of the work constrained sampling did beyond plain
    draws, so that repair is visible rather than silent.  Diagnostics only:
    they enter no fingerprint and no result metadata."""

    rounds: int = 0  #: repair passes that found a violated constraint
    redrawn: int = 0  #: values redrawn by repair
    dropped: int = 0  #: repaired rows discarded (round budget or re-mask)
    fallbacks: int = 0  #: columnar constraint checks redone row by row


class SearchSpace:
    """An ordered, possibly constrained collection of tuning parameters.

    Parameters
    ----------
    parameters:
        The tunable parameters, in a stable order (the order defines the
        axes of the unit-cube encoding).
    constraints:
        Validity predicates over configurations.  Only constraints whose
        referenced names all exist in this space are enforced.
    name:
        Label used in reports (e.g. ``"Group 2+3"``).
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint] = (),
        name: str = "space",
    ):
        params = list(parameters)
        if not params:
            raise ValueError("a search space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {dupes}")
        self.parameters: list[Parameter] = params
        self.constraints: list[Constraint] = list(constraints)
        self.name = name
        self._by_name = {p.name: p for p in params}
        self.repair_stats = RepairStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of tunable parameters (the ``d`` of the paper's d-dim
        searches)."""
        return len(self.parameters)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self.parameters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SearchSpace({self.name!r}, d={self.dimension})"

    def cardinality(self) -> float:
        """Total number of raw grid configurations (``inf`` if any parameter
        is continuous).  Constraints are *not* applied — this matches how the
        paper's Table IV reports `41,943,040 x N_nstb x N_nkpb x N_nspb`
        before validity filtering."""
        total = 1.0
        for p in self.parameters:
            if isinstance(p, Real):
                return math.inf
            total *= p.cardinality  # type: ignore[attr-defined]
        return total

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def is_valid(self, config: Mapping[str, Any]) -> bool:
        """True when ``config`` assigns an in-domain value to every parameter
        and satisfies every applicable constraint."""
        for p in self.parameters:
            if p.name not in config or not p.contains(config[p.name]):
                return False
        return check_all(self.constraints, config)

    def validate(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` with a precise message when invalid."""
        for p in self.parameters:
            if p.name not in config:
                raise ValueError(f"missing parameter {p.name!r}")
            if not p.contains(config[p.name]):
                raise ValueError(
                    f"value {config[p.name]!r} outside domain of parameter {p.name!r}"
                )
        check_all(self.constraints, config, strict=True)

    def _constraints_ok(self, config: Mapping[str, Any]) -> bool:
        """Constraint check hook; subclasses fold in pinned values."""
        return check_all(self.constraints, config)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    # A batch is held as per-parameter columns (lists of the values
    # ``Parameter.sample_batch`` returned) until the final decode to
    # dicts; feasibility and repair are computed per constraint over
    # whole columns through ``Constraint.mask``.

    def _fixed(self) -> Mapping[str, Any]:
        """Values shared by every row of a batch (a subspace's pins)."""
        return {}

    def _enforced(self) -> list[Constraint]:
        """Constraints whose every name is drawn or fixed; the rest are idle."""
        known = set(self._by_name) | set(self._fixed())
        return [c for c in self.constraints if all(n in known for n in c.names)]

    def _view(self, columns: dict[str, list], n: int) -> dict[str, Any]:
        """What constraints see: fixed values as scalars, then the columns."""
        fixed = self._fixed()
        if not fixed:
            return columns
        # A list-valued pin would read as a column; broadcast it into one.
        view = {k: [v] * n if isinstance(v, list) else v for k, v in fixed.items()}
        view.update(columns)
        return view

    def _feasible(
        self, columns: dict[str, list], n: int, constraints: Sequence[Constraint]
    ) -> np.ndarray:
        view = self._view(columns, n)
        ok = np.ones(n, dtype=bool)
        for c in constraints:
            ok &= c.mask(view, n, stats=self.repair_stats)
        return ok

    def _mask_columns(self, columns: dict[str, list], n: int) -> bool:
        """Hook run on every drawn and repaired batch; a subclass that may
        rewrite values in place returns ``True`` so repaired rows are
        re-checked afterwards."""
        return False

    def _draw(self, n: int, rng: np.random.Generator) -> dict[str, list]:
        """``n`` unconstrained rows: one ``sample_batch`` per parameter."""
        columns = {}
        for p in self.parameters:
            values = p.sample_batch(n, rng)
            columns[p.name] = values if type(values) is list else list(values)
        self._mask_columns(columns, n)
        return columns

    def _repair(
        self,
        columns: dict[str, list],
        n: int,
        rng: np.random.Generator,
        constraints: Sequence[Constraint],
        *,
        rounds: int = 40,
    ) -> list[tuple]:
        """Per-constraint repair sampling of ``n`` infeasible rows.

        For each violated constraint, only that constraint's parameters
        are redrawn, in the order of its ``names``, and only in the rows
        that violate it.  When constraints touch disjoint parameter groups
        (the typical HPC shape — e.g. one occupancy rule per kernel), the
        feasible set is a product of per-group feasible sets and this
        procedure samples it *exactly* uniformly, while whole-config
        rejection would need the product of all acceptance rates.
        Overlapping constraints are handled by iterating to a fixpoint;
        rows still infeasible after ``rounds`` are dropped.
        """
        stats = self.repair_stats
        view = self._view(columns, n)
        # A constraint found satisfied by every row stays so until one of
        # its parameters is redrawn; it is not re-checked before then.
        satisfied: set[Constraint] = set()
        converged = False
        for _ in range(rounds):
            broken = False
            for c in constraints:
                if c in satisfied:
                    continue
                bad = np.flatnonzero(~c.mask(view, n, stats=stats)).tolist()
                if not bad:
                    satisfied.add(c)
                    continue
                broken = True
                for name in c.names:
                    p = self._by_name.get(name)
                    if p is None:
                        continue  # fixed
                    column = columns[name]
                    for i, v in zip(bad, p.sample_batch(len(bad), rng)):
                        column[i] = v
                    stats.redrawn += len(bad)
                    satisfied.difference_update(
                        [d for d in satisfied if name in d.names]
                    )
            if not broken:
                converged = True
                break
            stats.rounds += 1
        keep = np.ones(n, dtype=bool)
        if not converged:
            keep &= self._feasible(columns, n, constraints)
        if self._mask_columns(columns, n):
            keep &= self._feasible(columns, n, constraints)
        stats.dropped += n - int(keep.sum())
        return list(itertools.compress(zip(*columns.values()), keep))

    def _check_fixed(self, constraints: Sequence[Constraint]) -> None:
        """Fail fast on a constraint that reads only fixed values: no draw
        can repair it, so when it fails no configuration is feasible."""
        fixed = self._fixed()
        for c in constraints:
            if not any(n in self._by_name for n in c.names) and not c.is_satisfied(fixed):
                raise InfeasibleSpaceError(
                    f"constraint {c.name!r} fails on the pinned values of "
                    f"{self.name!r}; no configuration is feasible"
                )

    def sample(
        self,
        rng: np.random.Generator,
        *,
        max_rejects: int = 10_000,
    ) -> dict[str, Any]:
        """Draw one feasible configuration by rejection sampling."""
        try:
            return self.sample_batch(1, rng, max_rejects=max_rejects)[0]
        except InfeasibleSpaceError:
            raise InfeasibleSpaceError(
                f"no feasible configuration found in {max_rejects} draws for "
                f"{self.name!r}"
            ) from None

    def sample_batch(
        self,
        n: int,
        rng: np.random.Generator,
        *,
        unique: bool = False,
        max_rejects: int = 10_000,
    ) -> list[dict[str, Any]]:
        """Draw ``n`` feasible configurations (vectorized rejection
        sampling: whole chunks are drawn per parameter, then filtered
        through the constraints; when too few pass, the rest are repaired
        and appended after the feasible rows).

        With ``unique=True`` duplicates (by parameter values) are
        filtered, falling back to returning fewer than ``n`` when the
        feasible set is smaller than requested.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        constraints = self._enforced()
        self._check_fixed(constraints)
        names = self.names
        out: list[dict[str, Any]] = []
        seen: set[tuple] = set()
        attempts = 0
        chunk = max(64, 2 * n)
        while len(out) < n and attempts < max_rejects:
            take = min(chunk, max_rejects - attempts)
            attempts += take
            columns = self._draw(take, rng)
            ok = self._feasible(columns, take, constraints)
            rows = list(itertools.compress(zip(*columns.values()), ok))
            if len(rows) < min(take, n - len(out)):
                bad = np.flatnonzero(~ok).tolist()
                broken = {k: [col[i] for i in bad] for k, col in columns.items()}
                rows.extend(self._repair(broken, len(bad), rng, constraints))
            for row in rows:
                if unique:
                    if row in seen:
                        continue
                    seen.add(row)
                out.append(dict(zip(names, row)))
                if len(out) >= n:
                    break
            chunk = min(4 * chunk, 8192)
        if not out:
            raise InfeasibleSpaceError(
                f"could not sample any configuration for {self.name!r}"
            )
        return out

    def latin_hypercube(
        self,
        n: int,
        rng: np.random.Generator,
        *,
        max_rejects: int = 200,
    ) -> list[dict[str, Any]]:
        """Space-filling initial design (LHS) with constraint repair.

        BO initialization benefits from stratified coverage; infeasible LHS
        points are replaced by rejection-sampled feasible ones so the design
        always has exactly ``n`` points.
        """
        d = self.dimension
        # Stratified unit-cube samples: one point per row-stratum per axis.
        u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.random((n, d))) / n
        out: list[dict[str, Any]] = []
        for row in u:
            cfg = self.decode(row)
            if self._constraints_ok(cfg):
                out.append(cfg)
            else:
                try:
                    out.append(self.sample(rng, max_rejects=max_rejects * 50))
                except InfeasibleSpaceError:
                    continue
        if not out:
            raise InfeasibleSpaceError(f"LHS produced no feasible points for {self.name!r}")
        return out

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Map a configuration to a point in ``[0, 1]^d`` (parameter order)."""
        return np.array([p.to_unit(config[p.name]) for p in self.parameters], dtype=float)

    def decode(self, x: np.ndarray | Sequence[float]) -> dict[str, Any]:
        """Inverse of :meth:`encode`; snaps discrete axes to their grid."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {arr.shape}")
        return {p.name: p.from_unit(float(u)) for p, u in zip(self.parameters, arr)}

    def encode_batch(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Vectorized :meth:`encode` over many configurations -> ``(n, d)``.

        One column operation per parameter (``Parameter.to_unit_batch``)
        instead of a per-configuration Python loop; the result is bitwise
        equal to ``np.stack([self.encode(c) for c in configs])`` because
        the scalar and batch codecs share the same numpy ufuncs.  This is
        the encoding path the BO candidate pool rides every iteration.
        """
        configs = list(configs)
        if not configs:
            return np.empty((0, self.dimension))
        out = np.empty((len(configs), self.dimension))
        for j, p in enumerate(self.parameters):
            out[:, j] = p.to_unit_batch([c[p.name] for c in configs])
        return out

    def decode_batch(self, X: np.ndarray) -> list[dict[str, Any]]:
        """Vectorized :meth:`decode` over ``(n, d)`` encoded rows."""
        arr = np.atleast_2d(np.asarray(X, dtype=float))
        if arr.shape[1] != self.dimension:
            raise ValueError(
                f"expected shape (n, {self.dimension}), got {arr.shape}"
            )
        columns = [
            p.from_unit_batch(arr[:, j]) for j, p in enumerate(self.parameters)
        ]
        names = self.names
        return [dict(zip(names, row)) for row in zip(*columns)]

    # ------------------------------------------------------------------
    # Structure operations used by the planner
    # ------------------------------------------------------------------
    def subspace(
        self,
        names: Sequence[str],
        *,
        pinned: Mapping[str, Any] | None = None,
        name: str = "",
    ) -> "PinnedSubspace":
        """Project onto ``names``; everything else is pinned.

        Dropped parameters take the value from ``pinned`` when given, else
        their declared default.  Constraints that straddle kept and pinned
        parameters remain enforceable because the pinned values are folded
        into every configuration the subspace produces.
        """
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise KeyError(f"unknown parameters: {missing}")
        kept = [self._by_name[n] for n in names]
        pin: dict[str, Any] = {}
        for p in self.parameters:
            if p.name not in names:
                pin[p.name] = (pinned or {}).get(p.name, p.default)
        return PinnedSubspace(
            kept,
            self.constraints,
            pin,
            name=name or f"{self.name}[{len(kept)}d]",
        )

    def defaults(self) -> dict[str, Any]:
        """Configuration with every parameter at its default value."""
        return {p.name: p.default for p in self.parameters}

    def neighbors(self, config: Mapping[str, Any]) -> list[dict[str, Any]]:
        """All feasible one-parameter moves away from ``config``."""
        out = []
        for p in self.parameters:
            for v in p.neighbors(config[p.name]):
                cand = dict(config)
                cand[p.name] = v
                if self.is_valid(cand):
                    out.append(cand)
        return out


class PinnedSubspace(SearchSpace):
    """A :class:`SearchSpace` over a subset of parameters with the rest
    pinned to fixed values.

    All sampling/encoding operates on the kept parameters only; the pinned
    assignments are merged into every configuration via :meth:`complete` so
    objective functions expecting the full parameter set keep working.  This
    is the mechanism behind the paper's "assigning default tuning values to
    the discarded variables".
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint],
        pinned: Mapping[str, Any],
        name: str = "subspace",
    ):
        super().__init__(parameters, constraints, name)
        self.pinned: dict[str, Any] = dict(pinned)
        overlap = set(self.pinned) & set(self.names)
        if overlap:
            raise ValueError(f"parameters both kept and pinned: {sorted(overlap)}")

    def _constraints_ok(self, config: Mapping[str, Any]) -> bool:
        return check_all(self.constraints, self.complete(config))

    def _fixed(self) -> Mapping[str, Any]:
        return self.pinned

    def complete(self, config: Mapping[str, Any]) -> dict[str, Any]:
        """Merge kept values with the pinned assignments -> full config."""
        full = dict(self.pinned)
        full.update(config)
        return full

    def is_valid(self, config: Mapping[str, Any]) -> bool:
        for p in self.parameters:
            if p.name not in config or not p.contains(config[p.name]):
                return False
        return check_all(self.constraints, self.complete(config))

    def validate(self, config: Mapping[str, Any]) -> None:
        for p in self.parameters:
            if p.name not in config:
                raise ValueError(f"missing parameter {p.name!r}")
            if not p.contains(config[p.name]):
                raise ValueError(
                    f"value {config[p.name]!r} outside domain of parameter {p.name!r}"
                )
        check_all(self.constraints, self.complete(config), strict=True)
