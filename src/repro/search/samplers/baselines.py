"""The classical baselines as suggest-only samplers.

The paper's Table III compares BO against random search, and its
related work against grid search ("random search, along with other
approaches such as grid search, has been demonstrated to be not as
accurate as Bayesian optimization ... in massive search spaces"); hill
climbing and simulated annealing complete the classical empirical
engines of its opening taxonomy.  All four run through the one
:class:`~repro.search.samplers.driver.SamplerSearch` loop, so they share
BO's checkpoint, quarantine and telemetry contract and the comparison is
like for like.

Each proposal is a pure function of ``(history, space, rng)`` plus state
fixed once in :meth:`~BaseSampler.prepare`:

* **random** draws one uniform feasible configuration;
* **grid** returns entry ``len(history)`` of a strided, feasible
  enumeration built once per run;
* **hillclimb** and **anneal** rebuild their walk by replaying
  ``history``, so a resumed search continues exactly where the killed
  one stopped.

Random and grid evaluations are independent, so their search time is
the parallel makespan; the two local searches are
:attr:`~BaseSampler.sequential` and report the sum of costs.
Grid and hill climbing are :attr:`~BaseSampler.deterministic`: a
re-ask after a breaker veto would return the vetoed proposal again (or,
at a hill-climbing restart, the uniform draw the driver's fallback makes
anyway), so the driver asks them once per record.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

import numpy as np

from ...space import Real
from .base import BaseSampler, SamplerCapabilities, register_sampler

__all__ = ["RandomSampler", "GridSampler", "HillClimbSampler", "AnnealSampler"]

_BASELINE_CAPABILITIES = SamplerCapabilities(
    floats=True,
    integers=True,
    categorical=True,
    multivariate=False,
    conditional=True,
    warm_start=False,
)


@register_sampler
class RandomSampler(BaseSampler):
    """Uniform constrained random search (Table III baseline)."""

    name = "random"
    capabilities = _BASELINE_CAPABILITIES

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        return space.sample(rng)


@register_sampler
class GridSampler(BaseSampler):
    """Strided grid enumeration (deterministic, seedless).

    Parameters
    ----------
    points_per_axis:
        Grid resolution for continuous (``Real``) axes.
    max_points_per_discrete_axis:
        Discrete axes use their full native grids up to this bound, above
        which they are subsampled to quantiles (an Integer axis of
        cardinality 1024 would otherwise explode the grid).

    When the full grid exceeds the budget, every ``total // budget``-th
    point of the enumeration order is kept; infeasible points are
    skipped.  The search ends early once the enumeration is used up.
    """

    name = "grid"
    capabilities = _BASELINE_CAPABILITIES
    deterministic = True

    def __init__(
        self, points_per_axis: int = 4, max_points_per_discrete_axis: int = 32
    ):
        if points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        if max_points_per_discrete_axis < 2:
            raise ValueError("max_points_per_discrete_axis must be >= 2")
        self.points_per_axis = int(points_per_axis)
        self.max_points_per_discrete_axis = int(max_points_per_discrete_axis)
        self._points: list[dict[str, Any]] = []

    def prepare(self, space, seed_seq, budget: int) -> None:
        axes = [
            p.grid(
                self.points_per_axis if isinstance(p, Real)
                else self.max_points_per_discrete_axis
            )
            for p in space.parameters
        ]
        total = math.prod(len(a) for a in axes)
        self._points = []
        # Decode each strided index of itertools.product(*axes) directly
        # (last axis fastest) instead of walking all ``total`` points.
        for index in range(0, total, max(1, total // budget)):
            combo = []
            for axis in reversed(axes):
                index, digit = divmod(index, len(axis))
                combo.append(axis[digit])
            cfg = dict(zip(space.names, reversed(combo)))
            if self.candidate_is_valid(space, cfg):
                self._points.append(cfg)
                if len(self._points) == budget:
                    break
        if not self._points:
            raise RuntimeError(
                f"grid search found no feasible point in {space.name!r}"
            )

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any] | None:
        """Grid entry ``len(history)``; ``None`` once the grid is used up."""
        if len(history) < len(self._points):
            return dict(self._points[len(history)])
        return None


def _project(space, config: Mapping[str, Any]) -> dict[str, Any]:
    """Drop pinned values merged into a recorded config."""
    return {name: config[name] for name in space.names}


@register_sampler
class HillClimbSampler(BaseSampler):
    """Steepest-descent hill climbing with random restarts.

    From the current point, all feasible one-parameter neighbors
    (:meth:`repro.space.SearchSpace.neighbors`) are evaluated; the best
    strictly-improving one becomes the next point.  At a local optimum
    the search restarts from a fresh random configuration.
    """

    name = "hillclimb"
    capabilities = _BASELINE_CAPABILITIES
    sequential = True
    deterministic = True

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        # Replay the walk.  Each record after a restart point fills the
        # next position of the current neighbor scan, whatever config the
        # driver actually recorded there (it may have substituted a draw
        # for a vetoed proposal).
        current_val = None  # None: the next record is a restart
        scan: list[dict[str, Any]] = []
        pos = 0
        best = None  # (config, objective) of the best improving neighbor
        for rec in history:
            if current_val is None:
                if rec.ok:
                    current_val = rec.objective
                    scan, pos = space.neighbors(_project(space, rec.config)), 0
            else:
                bar = current_val if best is None else best[1]
                if rec.ok and rec.objective < bar:
                    best = (rec.config, rec.objective)
                pos += 1
            while current_val is not None and pos >= len(scan):
                if best is None:
                    current_val = None  # local optimum: restart
                else:
                    current_val = best[1]
                    scan, pos = space.neighbors(_project(space, best[0])), 0
                    best = None
        if current_val is None:
            return space.sample(rng)
        return scan[pos]


@register_sampler
class AnnealSampler(BaseSampler):
    """Metropolis annealing over the neighborhood graph.

    Parameters
    ----------
    t_initial / t_final:
        Temperature schedule endpoints; geometric decay over the budget.
        Temperatures scale acceptance of *relative* objective increases,
        so runtimes of any magnitude work without tuning.

    The acceptance uniform of record ``i`` is entry ``i`` of a stream
    drawn once in :meth:`prepare` from the run-stable seed, so replaying
    ``history`` reproduces every accept/reject decision.
    """

    name = "anneal"
    capabilities = _BASELINE_CAPABILITIES
    sequential = True

    def __init__(self, t_initial: float = 0.3, t_final: float = 0.005):
        if t_initial <= 0 or t_final <= 0 or t_final > t_initial:
            raise ValueError("need t_initial >= t_final > 0")
        self.t_initial = float(t_initial)
        self.t_final = float(t_final)
        self._budget = 1
        self._uniforms = np.empty(0)

    def prepare(self, space, seed_seq, budget: int) -> None:
        self._budget = int(budget)
        self._uniforms = np.random.default_rng(seed_seq).random(self._budget)

    def temperature(self, i: int) -> float:
        """Temperature at record ``i`` of the budget."""
        frac = i / max(1, self._budget - 1)
        return self.t_initial * (self.t_final / self.t_initial) ** frac

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        current, current_val = None, None
        for i, rec in enumerate(history):
            if not rec.ok:
                continue  # a failed candidate leaves the walk in place
            if current is None:
                current, current_val = rec.config, rec.objective
                continue
            rel = (rec.objective - current_val) / max(abs(current_val), 1e-12)
            if rel <= 0 or self._uniforms[i] < math.exp(
                -rel / self.temperature(i)
            ):
                current, current_val = rec.config, rec.objective
        if current is None:
            return space.sample(rng)
        moves = space.neighbors(_project(space, current))
        if not moves:
            return space.sample(rng)
        return moves[int(rng.integers(0, len(moves)))]
