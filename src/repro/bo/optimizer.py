"""The sequential Bayesian-optimization loop.

Implements the loop described in the paper's Section III-A:

1. train the surrogate on a small random (here: Latin-hypercube) initial
   design,
2. let the acquisition function suggest the next configuration, balancing
   exploration and exploitation,
3. evaluate it, retrain, repeat until the stopping criterion
   (``max_evaluations``, the paper uses ``10 x num_parameters``) is met.

Search-time accounting mirrors the paper's Table III: reported search time
is the sum of evaluation costs plus the surrogate/acquisition *modeling
overhead*, which grows O(N^3) with the number of observations and is what
makes the fully-joint 20-dim search with N=200 dramatically slower than the
decomposed searches.

Failure handling: objectives may raise (recorded as FAILED) or exceed
``evaluation_timeout`` (recorded as TIMEOUT, matching the paper's 15-minute
cap on suggested configurations); both are excluded from the GP training
set but remembered so the acquisition avoids re-suggesting them.  Failed
evaluations are charged a *simulated* failure penalty (``failure_cost``,
defaulting to the timeout cap) so search-time columns never mix real
machine seconds into the simulated-cost ledger; the measured seconds are
preserved in the record's ``meta``.

Determinism and crash recovery: all randomness is drawn from per-iteration
:class:`numpy.random.SeedSequence` streams keyed on the number of records
in the evaluation database.  Because the streams depend only on (seed,
progress index) — not on how many times the process restarted — resuming
from a checkpoint replays the completed evaluations, re-executes the
pre-crash fit schedule (rebuilding incremental Cholesky state
deterministically from history; it is never serialized), and then
continues *bit-identically* to an uninterrupted run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..faults.breaker import CircuitBreaker, persist_breaker, restore_breaker
from ..faults.taxonomy import (
    FAILURE_KIND_KEY,
    FailureKind,
    classify_exception,
    failure_kind_of,
)
from ..space import SearchSpace
from ..telemetry.core import NULL_TRACER, config_hash
from .acquisition import (
    AcquisitionFunction,
    acquisition_by_name,
    maximize_acquisition,
)
from .gp import GaussianProcess, GPFitError
from .history import Evaluation, EvaluationDatabase, EvaluationStatus
from .kernels import kernel_by_name
from .pool import EncodedPool

__all__ = ["BayesianOptimizer", "BOResult", "Objective"]

# An objective maps a configuration dict to either a float runtime or a
# (runtime, metadata) pair.
Objective = Callable[[Mapping[str, Any]], Any]


@dataclass
class BOResult:
    """Outcome of one BO search.

    Attributes
    ----------
    best_config / best_objective:
        The incumbent at termination.
    database:
        Full evaluation history (reusable for transfer learning).
    n_evaluations:
        Number of objective evaluations performed *in this run* (excludes
        replayed records from crash recovery).
    evaluation_cost:
        Sum of the objective evaluation costs (simulated seconds).
    modeling_overhead:
        Surrogate-fit + acquisition time accounted via the O(N^3) model
        (simulated seconds).
    search_time:
        ``evaluation_cost + modeling_overhead`` — the paper's "Time" column.
        BO evaluations are inherently sequential, so no parallel discount
        applies within a single search.
    """

    best_config: dict[str, Any]
    best_objective: float
    database: EvaluationDatabase
    n_evaluations: int
    evaluation_cost: float
    modeling_overhead: float
    meta: dict[str, Any] = field(default_factory=dict)
    """Robustness annotations (failure-kind counts, circuit-breaker
    quarantine summary) — forwarded into ``SearchResult.meta``."""

    @property
    def search_time(self) -> float:
        return self.evaluation_cost + self.modeling_overhead

    @property
    def trajectory(self) -> np.ndarray:
        """Best-so-far series (Figure 6 material)."""
        return self.database.best_so_far()


class BayesianOptimizer:
    """Constrained sequential BO over a :class:`SearchSpace`.

    Parameters
    ----------
    space:
        The (sub)space to search.  :class:`repro.space.PinnedSubspace`
        instances are completed with their pinned values before evaluation.
    objective:
        Black-box function ``config -> runtime`` or ``config -> (runtime,
        meta)``.  Raising marks the evaluation FAILED.
    n_initial:
        Random/LHS configurations used to seed the surrogate (paper: 5).
    max_evaluations:
        Stopping criterion; the paper uses ``10 x num_parameters``.  When
        ``None`` it defaults to exactly that.
    acquisition:
        Acquisition function instance or name ("ei", "pi", "lcb", "ts").
    kernel:
        Kernel name for the GP surrogate ("matern52" default).
    incremental:
        Enable the incremental-GP fast path (default ``True``): between
        full refits the surrogate absorbs new observations via O(N^2)
        rank-1 Cholesky extensions (:meth:`GaussianProcess.update`)
        instead of O(N^3) refits.  Incremental and full-refit models
        agree to floating-point rounding; ``tests/bo/harness`` is the
        differential harness that verifies proposal sequences match the
        full-refit baseline and measures the drift.
    full_refit_every:
        The K-refit knob: every K-th scheduled fit is forced to a full
        factorization (in addition to the hyperparameter refits, which
        are always full), bounding the incremental chain length and hence
        the accumulated floating-point drift.  The drift observed at each
        full refit is exposed as ``last_drift`` and on the ``gp_fit``
        span.  Only meaningful when ``incremental`` is on.
    evaluation_timeout:
        Objective values above this threshold are recorded as TIMEOUT at the
        cap value (simulating the paper's 15-minute kill switch).
    database:
        Optional pre-loaded :class:`EvaluationDatabase` (crash recovery /
        warm start).  Existing OK records count toward ``max_evaluations``
        and are excluded from the returned ``n_evaluations``.
    resume:
        When ``True`` (default) and the database already holds records,
        the optimizer replays them to reconstruct the surrogate
        hyperparameter state before continuing, so a resumed search
        continues exactly where the crashed one left off.
    failure_cost:
        Simulated cost charged to FAILED/TIMEOUT evaluations.  ``None``
        (default) charges ``evaluation_timeout`` when one is set, else 0 —
        never real machine seconds, which would corrupt the simulated
        search-time ledger.  The measured wall-clock of the failed run is
        kept in ``meta["measured_seconds"]``.
    model_unit_cost:
        Seconds per unit of the O(N^3 + N d) modeling-work estimate; the
        knob that lets the simulated Table III reproduce the wall-clock gap
        between 20-dim joint BO and the decomposed searches.
    quarantine_threshold / quarantine_resolution:
        Circuit breaker: after ``quarantine_threshold`` PERMANENT/NUMERIC
        classified failures inside one cell of the
        ``quarantine_resolution``-per-axis grid over the unit cube, that
        cell is quarantined — the optimizer stops suggesting
        configurations there (resampling deterministically from the
        iteration's RNG stream) and the search degrades gracefully
        instead of re-probing poison.  ``None`` (default) disables the
        breaker.  Tripped cells are reported in ``meta["quarantined"]``.
    failure_penalty_factor:
        When set, FAILED/TIMEOUT observations are fed to the GP as
        *penalized* observations instead of being dropped: their target
        value is ``y_max + factor * (y_max - y_min)`` over the successful
        records (falling back to ``y_max + factor`` for a degenerate
        spread), so the surrogate learns an elevated surface around
        failing regions.  ``None`` (default) keeps the classic
        drop-failures behavior.
    candidate_pool:
        Optional fixed :class:`~repro.bo.pool.EncodedPool`: the
        acquisition scores this pre-encoded matrix every iteration
        (masking already-evaluated entries by key) instead of sampling
        and re-encoding a fresh pool.  When the pool is exhausted the
        iteration falls back to fresh sampling.  Pool content — not its
        storage (local vs. shared memory) — determines proposals, so
        campaign workers attached to a shared segment produce
        bit-identical results.
    approx:
        Opt-in approximate surrogate for long histories: ``None``
        (default, exact GP — bit-identical to previous behavior),
        ``"sod"`` (subset-of-data: exact GP on a deterministic
        farthest-point subset of ``approx_size`` observations), or
        ``"inducing"`` (:class:`~repro.bo.highdim.InducingPointGP`, DTC
        posterior over the full history through ``approx_size`` inducing
        points).  Only engages once the training set exceeds
        ``approx_threshold`` observations; below that the exact GP is
        used regardless.  Approximate proposals are tolerance-bounded,
        not bit-identical — hence the explicit opt-in.
    tracer:
        Optional :class:`repro.telemetry.Tracer` — a pure observer that
        emits ``bo_iteration`` / ``gp_fit`` / ``acquisition`` /
        ``evaluation`` spans and one ``eval`` event per database record
        (replayed records re-emit theirs, keeping resumed traces aligned
        with uninterrupted ones).  ``None`` (default) skips all
        instrumentation; the tracer never draws random state or alters
        control flow, so results are bit-identical either way.
    """

    def __init__(
        self,
        space: SearchSpace,
        objective: Objective,
        *,
        n_initial: int = 5,
        max_evaluations: int | None = None,
        acquisition: AcquisitionFunction | str = "ei",
        kernel: str = "matern52",
        refit_every: int = 1,
        hyper_refit_every: int = 5,
        incremental: bool = True,
        full_refit_every: int = 10,
        n_candidates: int = 512,
        evaluation_timeout: float | None = None,
        database: EvaluationDatabase | None = None,
        resume: bool = True,
        failure_cost: float | None = None,
        model_unit_cost: float = 5e-7,
        quarantine_threshold: int | None = None,
        quarantine_resolution: int = 4,
        failure_penalty_factor: float | None = None,
        mean_function: Callable[[np.ndarray], np.ndarray] | None = None,
        candidate_pool: EncodedPool | None = None,
        approx: str | None = None,
        approx_size: int = 256,
        approx_threshold: int = 512,
        tracer=None,
        random_state: int | np.random.Generator | np.random.SeedSequence | None = None,
    ):
        if n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        if approx not in (None, "sod", "inducing"):
            raise ValueError(
                f"approx must be None, 'sod', or 'inducing', got {approx!r}"
            )
        self.space = space
        self.objective = objective
        self.n_initial = int(n_initial)
        self.max_evaluations = (
            int(max_evaluations) if max_evaluations is not None else 10 * space.dimension
        )
        if self.max_evaluations < self.n_initial:
            raise ValueError("max_evaluations must be >= n_initial")
        self.acquisition = (
            acquisition_by_name(acquisition)
            if isinstance(acquisition, str)
            else acquisition
        )
        self.kernel_name = kernel
        self.refit_every = max(1, int(refit_every))
        self.hyper_refit_every = max(1, int(hyper_refit_every))
        self.incremental = bool(incremental)
        self.full_refit_every = max(1, int(full_refit_every))
        self.n_candidates = int(n_candidates)
        self._fit_count = 0
        self._kernel_theta: np.ndarray | None = None
        self._gp_noise: float | None = None
        self._gp_jitter: float | None = None
        #: Mode of the most recent surrogate fit ("full"/"incremental")
        #: and the drift measured at the most recent full refit — the
        #: values the ``gp_fit`` telemetry span reports.
        self.last_fit_mode: str | None = None
        self.last_drift: float | None = None
        self.evaluation_timeout = evaluation_timeout
        self.database = database if database is not None else EvaluationDatabase()
        self.resume = bool(resume)
        self.failure_cost = failure_cost
        self.model_unit_cost = float(model_unit_cost)
        self.failure_penalty_factor = (
            float(failure_penalty_factor)
            if failure_penalty_factor is not None
            else None
        )
        self.breaker = (
            CircuitBreaker(
                space,
                threshold=quarantine_threshold,
                resolution=quarantine_resolution,
            )
            if quarantine_threshold is not None
            else None
        )
        self.quarantine_skips = 0
        self.mean_function = mean_function
        self.candidate_pool = candidate_pool
        self.approx = approx
        self.approx_size = int(approx_size)
        self.approx_threshold = int(approx_threshold)
        #: Surrogate family of the most recent fit: ``"exact"``, ``"sod"``,
        #: or ``"inducing"`` — the ``acquisition_batch`` span's ``approx``.
        self.last_surrogate: str = "exact"
        self.tracer = tracer
        self._best_seen: float | None = None
        # Incrementally-maintained identity keys of every database record
        # (the acquisition's exclude set) — O(new records) per iteration
        # instead of rebuilding O(N d) config dicts each proposal.
        self._eval_keys: set[tuple] = set()
        self._eval_keys_n = 0
        # All randomness derives from one SeedSequence so that per-iteration
        # streams can be re-derived after a crash.  A Generator input (legacy
        # API) contributes a single entropy draw.
        if isinstance(random_state, np.random.SeedSequence):
            self._seed_seq = random_state
        elif isinstance(random_state, np.random.Generator):
            self._seed_seq = np.random.SeedSequence(
                int(random_state.integers(0, 2**63))
            )
        else:
            self._seed_seq = np.random.SeedSequence(random_state)
        # Legacy attribute: subclasses (batch BO) and Thompson sampling
        # consume this sequentially.
        self.rng = np.random.default_rng(self._stream(0))
        self._model: GaussianProcess | None = None

    def _stream(self, index: int) -> np.random.SeedSequence:
        """Independent child stream ``index`` of this optimizer's seed.

        Iteration ``idx`` of the loop uses stream ``idx + 1`` (stream 0 is
        reserved for ``self.rng``); the initial design uses the dedicated
        ``_INIT_STREAM``.  Keyed on the database length, not on call
        counts, so a resumed process derives the same streams.
        """
        key = tuple(self._seed_seq.spawn_key) + (int(index),)
        return np.random.SeedSequence(self._seed_seq.entropy, spawn_key=key)

    # Stream indices: 0 -> self.rng, 1 -> initial design, idx + 2 -> the
    # loop iteration that produced record number `idx`.
    _INIT_STREAM = 1

    def _iter_rng(self, idx: int) -> np.random.Generator:
        return np.random.default_rng(self._stream(idx + 2))

    # ------------------------------------------------------------------
    @property
    def model(self) -> GaussianProcess | None:
        """The current surrogate (``None`` before the first fit)."""
        return self._model

    def _complete(self, config: Mapping[str, Any]) -> dict[str, Any]:
        complete = getattr(self.space, "complete", None)
        return complete(config) if complete is not None else dict(config)

    @property
    def _failure_penalty(self) -> float:
        """Simulated cost charged to failed/timed-out evaluations."""
        if self.failure_cost is not None:
            return float(self.failure_cost)
        if self.evaluation_timeout is not None:
            return float(self.evaluation_timeout)
        return 0.0

    def _evaluate(self, config: Mapping[str, Any]) -> Evaluation:
        """Run the objective with failure/timeout capture.

        Failure/timeout records are charged the simulated
        ``failure_cost`` penalty — never real ``perf_counter`` seconds,
        which live on a different clock than the simulated runtimes the
        cost ledger sums.  The measured seconds are kept in
        ``meta["measured_seconds"]``.
        """
        full = self._complete(config)
        t0 = time.perf_counter()
        try:
            out = self.objective(full)
        except Exception as exc:  # objective crash -> classified record
            kind = classify_exception(exc)
            meta: dict[str, Any] = {
                "error": repr(exc),
                FAILURE_KIND_KEY: kind.value,
                "measured_seconds": time.perf_counter() - t0,
            }
            if kind is FailureKind.TIMEOUT:
                # The watchdog fired: a *real* wall-clock deadline, as
                # opposed to the simulated cap below.
                meta["timeout_kind"] = "wallclock"
            return Evaluation(
                config=full,
                objective=float("nan"),
                cost=self._failure_penalty,
                status=EvaluationStatus.TIMEOUT
                if kind is FailureKind.TIMEOUT
                else EvaluationStatus.FAILED,
                meta=meta,
            )
        if isinstance(out, tuple):
            value, meta = float(out[0]), dict(out[1])
        else:
            value, meta = float(out), {}
        if self.evaluation_timeout is not None and (
            not np.isfinite(value) or value > self.evaluation_timeout
        ):
            # Simulated kill switch: charge the capped runtime (the run
            # would have been killed at the timeout), never more.
            finite = np.isfinite(value)
            return Evaluation(
                config=full,
                objective=float("nan"),
                cost=min(value, self.evaluation_timeout)
                if finite
                else self._failure_penalty,
                status=EvaluationStatus.TIMEOUT,
                meta={
                    **meta,
                    FAILURE_KIND_KEY: (
                        FailureKind.TIMEOUT if finite else FailureKind.NUMERIC
                    ).value,
                    "timeout_kind": "simulated",
                    "measured_seconds": time.perf_counter() - t0,
                },
            )
        if not np.isfinite(value):
            return Evaluation(
                config=full,
                objective=float("nan"),
                cost=self._failure_penalty,
                status=EvaluationStatus.FAILED,
                meta={
                    **meta,
                    FAILURE_KIND_KEY: FailureKind.NUMERIC.value,
                    "measured_seconds": time.perf_counter() - t0,
                },
            )
        # The objective's value *is* the simulated runtime, hence the cost
        # (clamped at zero: synthetic objectives may be negative logs).
        return Evaluation(config=full, objective=value, cost=max(value, 0.0), meta=meta)

    def _traced_evaluate(self, config: Mapping[str, Any]) -> Evaluation:
        """:meth:`_evaluate` wrapped in an ``evaluation`` span."""
        if self.tracer is None:
            return self._evaluate(config)
        with self.tracer.span("evaluation") as sp:
            rec = self._evaluate(config)
            sp.attrs.update(status=rec.status, cost=rec.cost)
        return rec

    def _emit_eval(self, index: int, rec: Evaluation) -> None:
        """Emit one ``eval`` event keyed by database index.

        Tracks the running best over OK records; called for replayed
        records too, so resumed traces carry the full evaluation stream.
        No-op (and zero bookkeeping) when tracing is disabled.
        """
        if self.tracer is None:
            return
        if rec.ok and (self._best_seen is None or rec.objective < self._best_seen):
            self._best_seen = float(rec.objective)
        kind = failure_kind_of(rec)
        extra: dict[str, Any] = {}
        if rec.meta.get("cache_hit"):
            extra["cache_hit"] = True
        self.tracer.eval_event(
            index,
            objective=float(rec.objective),
            cost=float(rec.cost),
            status=rec.status,
            best=self._best_seen,
            failure_kind=kind.value if kind is not None else None,
            cfg_hash=config_hash(rec.config),
            **extra,
        )

    def _training_set(
        self, records: Sequence[Evaluation] | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[dict[str, Any]]]:
        recs = self.database.records if records is None else list(records)
        ok = [r for r in recs if r.ok]
        training = list(ok)
        y_fail: float | None = None
        if self.failure_penalty_factor is not None and ok:
            # Failed points enter the GP as penalized observations (worse
            # than the worst success by factor x the observed spread) so
            # the surrogate learns to avoid failing regions instead of
            # treating them as unexplored.
            y_ok = np.array([r.objective for r in ok], dtype=float)
            spread = float(y_ok.max() - y_ok.min())
            y_fail = float(
                y_ok.max()
                + self.failure_penalty_factor * (spread if spread > 0 else 1.0)
            )
            training += [r for r in recs if not r.ok]
        configs = [
            {k: r.config[k] for k in self.space.names} for r in training
        ]
        X = self.space.encode_batch(configs)
        y = np.array(
            [r.objective if r.ok else y_fail for r in training], dtype=float
        )
        return X, y, configs

    def _fit_schedule(self, idx: int) -> tuple[bool, bool, bool]:
        """(fit?, optimize-hyperparameters?, full-refit?) for the
        iteration producing record ``idx``.

        Purely a function of ``idx`` — never of how many fits this
        *process* performed — so a resumed run reproduces the exact fit
        schedule of an uninterrupted one.  Surrogate refits happen every
        ``refit_every`` records; every ``hyper_refit_every``-th of those
        re-runs the full MLE.  In between, the previous hyperparameters
        are reused and — with ``incremental`` on — the factor is extended
        in O(N^2) via rank-1 updates, except every ``full_refit_every``-th
        fit, which refactorizes from scratch to bound numerical drift.
        """
        steps = idx - self.n_initial
        fit = steps % self.refit_every == 0
        fit_no = steps // self.refit_every
        optimize = fit and fit_no % self.hyper_refit_every == 0
        full = fit and (
            optimize
            or not self.incremental
            or fit_no % self.full_refit_every == 0
        )
        return fit, optimize, full

    def _fit_model(
        self,
        *,
        optimize: bool,
        rng: np.random.Generator,
        records: Sequence[Evaluation] | None = None,
        replay: bool = False,
        full: bool = True,
    ) -> float:
        """Fit the surrogate; returns the simulated modeling cost."""
        if self.tracer is not None:
            with self.tracer.span("gp_fit", optimize=optimize,
                                  replay=replay) as sp:
                cost = self._fit_model_inner(
                    optimize=optimize, rng=rng, records=records, full=full
                )
                sp.attrs["sim_cost"] = cost
                sp.attrs["n_points"] = len(
                    self.database if records is None else records
                )
                sp.attrs["mode"] = self.last_fit_mode
                if self.last_drift is not None:
                    sp.attrs["drift"] = self.last_drift
            return cost
        return self._fit_model_inner(
            optimize=optimize, rng=rng, records=records, full=full
        )

    def _try_incremental(self, X: np.ndarray, y: np.ndarray) -> bool:
        """Absorb the new training rows into the current surrogate.

        Applies only when the existing model's training set is an exact
        prefix of the new one (same inputs *and* raw targets — a changed
        failure-penalty target, for example, disqualifies the prefix and
        forces a full refit).  Returns ``True`` on success.
        """
        m = self._model
        if m is None or not m.is_fit or not (0 < m.n_train <= X.shape[0]):
            return False
        n_old = m.n_train
        if not (
            np.array_equal(m.train_X, X[:n_old])
            and np.array_equal(m.train_y, y[:n_old])
        ):
            return False
        try:
            m.update(X[n_old:], y[n_old:])
        except GPFitError:
            return False
        if m.last_fit_mode != "incremental":
            # update() hit a numerical breakdown and refactorized fully.
            self.last_fit_mode = "full"
        else:
            self.last_fit_mode = "incremental"
        self._gp_jitter = m.jitter
        return True

    def _measure_drift(
        self, old: GaussianProcess | None, new: GaussianProcess
    ) -> float | None:
        """Max |ΔL| between the refit factor's leading block and the
        superseded (incrementally-extended) factor.

        Only defined when the superseded model shares hyperparameters,
        noise, jitter, and a training-set prefix with the refit one — the
        exact situation the periodic K-refit creates.  This is the drift
        bound the ``gp_fit`` span and the differential harness record.
        """
        if old is None or not old.is_fit or old is new:
            return None
        n_old = old.n_train
        if n_old > new.n_train or old.n_incremental == 0:
            return None
        if not np.array_equal(old.kernel.theta, new.kernel.theta):
            return None
        if old.noise != new.noise or old.jitter != new.jitter:
            return None
        if not np.array_equal(old.train_X, new.train_X[:n_old]):
            return None
        L_old = old.cholesky_factor
        L_new = new.cholesky_factor[:n_old, :n_old]
        return float(np.max(np.abs(L_new - L_old)))

    def _approx_active(self, n: int) -> bool:
        return self.approx is not None and n > self.approx_threshold

    def _fit_approx_model(
        self, X: np.ndarray, y: np.ndarray, *, optimize: bool, rng: np.random.Generator
    ) -> None:
        """Fit the opted-in approximate surrogate (bounded time in N).

        ``"sod"`` trains an exact GP on a deterministic farthest-point
        subset; ``"inducing"`` trains the DTC sparse GP on the full
        history.  Both reuse the warm-started hyperparameters/jitter the
        exact path maintains, and write them back, so toggling between
        exact and approximate fits across the threshold stays smooth.
        """
        from .highdim import InducingPointGP, farthest_point_subset

        kernel = kernel_by_name(self.kernel_name, X.shape[1])
        if self._kernel_theta is not None:
            kernel.theta = self._kernel_theta
        try:
            if self.approx == "sod":
                idx = farthest_point_subset(X, y, self.approx_size)
                model = GaussianProcess(
                    kernel=kernel,
                    mean_function=self.mean_function,
                    random_state=rng,
                )
                if self._gp_noise is not None:
                    model.noise = self._gp_noise
                if self._gp_jitter is not None:
                    model.jitter = self._gp_jitter
                model.fit(X[idx], y[idx], optimize=optimize,
                          tracer=self.tracer)
            else:
                model = InducingPointGP(kernel, random_state=rng)
                if self._gp_noise is not None:
                    model.noise = self._gp_noise
                if self._gp_jitter is not None:
                    model.jitter = self._gp_jitter
                model.fit(X, y, optimize=optimize, n_inducing=self.approx_size)
            self._model = model
            self._kernel_theta = model.kernel.theta.copy()
            self._gp_noise = model.noise
            self._gp_jitter = model.jitter
            self.last_surrogate = self.approx
        except GPFitError:
            self._model = None

    def _fit_model_inner(
        self,
        *,
        optimize: bool,
        rng: np.random.Generator,
        records: Sequence[Evaluation] | None = None,
        full: bool = True,
    ) -> float:
        X, y, _ = self._training_set(records)
        n, d = X.shape
        self._fit_count += 1
        self.last_drift = None
        if self._approx_active(n):
            self._fit_approx_model(X, y, optimize=optimize, rng=rng)
            self.last_fit_mode = self.approx
            # The *simulated* ledger still charges the paper's exact-GP
            # O(N^3) accounting (Table III describes the full-refit
            # baseline); the real bounded-time win shows up in gp_fit
            # span durations and benchmarks/bench_bo_hotpath.py.
            return self.model_unit_cost * (
                n**3 + n * n * d + self.n_candidates * n * d
            )
        self.last_surrogate = "exact"
        if not full and not optimize and self._try_incremental(X, y):
            # Note: the *simulated* cost ledger deliberately keeps the
            # paper's O(N^3)-per-fit accounting model (Table III is a
            # statement about the GPTune-style full-refit baseline); the
            # real-wall-clock win of the fast path shows up in the gp_fit
            # span durations and benchmarks/bench_gp_incremental.py.
            return self.model_unit_cost * (
                n**3 + n * n * d + self.n_candidates * n * d
            )
        kernel = kernel_by_name(self.kernel_name, d)
        if self._kernel_theta is not None:
            kernel.theta = self._kernel_theta
        model = GaussianProcess(
            kernel=kernel,
            mean_function=self.mean_function,
            random_state=rng,
        )
        if self._gp_noise is not None:
            model.noise = self._gp_noise
        if self._gp_jitter is not None:
            model.jitter = self._gp_jitter
        try:
            model.fit(X, y, optimize=optimize, tracer=self.tracer)
            self.last_drift = self._measure_drift(self._model, model)
            self._model = model
            self._kernel_theta = model.kernel.theta.copy()
            self._gp_noise = model.noise
            self._gp_jitter = model.jitter
        except GPFitError:
            self._model = None
        self.last_fit_mode = "full"
        # O(N^3) Cholesky + O(N^2 d) kernel work, plus acquisition scoring
        # over the candidate batch: the simulated modeling overhead.
        return self.model_unit_cost * (n**3 + n * n * d + self.n_candidates * n * d)

    def _replay_model_state(self) -> None:
        """Reconstruct the surrogate from replayed records.

        Re-runs *every* fit of the pre-crash schedule — full and
        incremental alike, applying the exact decision logic of the live
        loop — on the same data prefixes and RNG streams the original
        process used.  Incremental state is therefore rebuilt
        deterministically from history (it is never serialized): the
        resulting Cholesky factor is the product of the identical sequence
        of floating-point operations, so the resumed search continues
        *bit-identically* to an uninterrupted run.  Replayed fits are not
        charged to this run's modeling overhead: that cost was paid before
        the crash.
        """
        records = self.database.records
        for idx in range(self.n_initial, len(records)):
            fit, optimize, full = self._fit_schedule(idx)
            if not (self._model is None or fit):
                continue
            self._fit_model(
                optimize=optimize, rng=self._iter_rng(idx),
                records=records[:idx], replay=True, full=full,
            )

    def _exclude_keys(self) -> set[tuple]:
        """Identity keys of every database record, maintained incrementally.

        Equivalent to rebuilding ``{tuple(r.config[k] for k in names)}``
        from scratch (same set contents, hence identical proposals), but
        O(records appended since the last call) instead of O(N d) per
        iteration — one of the Python-loop hot spots at N ~ 1000.
        """
        records = self.database.records
        if self._eval_keys_n > len(records):  # database was swapped/truncated
            self._eval_keys = set()
            self._eval_keys_n = 0
        names = self.space.names
        for r in records[self._eval_keys_n:]:
            self._eval_keys.add(tuple(r.config[k] for k in names))
        self._eval_keys_n = len(records)
        return self._eval_keys

    def _replay_acquisition_schedule(self) -> None:
        """Re-apply the acquisition's ``update`` schedule for replayed
        records, so schedule-dependent state (LCB's beta decay) matches an
        uninterrupted run exactly.  The live loop called ``update(it,
        total)`` once per iteration with ``it`` = the OK-count *before*
        that iteration's record; replaying the same sequence is
        correct-by-construction for any stateful acquisition.
        """
        records = self.database.records
        total = self.max_evaluations
        n_ok = sum(1 for r in records[: self.n_initial] if r.ok)
        for idx in range(self.n_initial, len(records)):
            self.acquisition.update(n_ok, total)
            if records[idx].ok:
                n_ok += 1

    def _persist_breaker(self) -> None:
        """Atomically snapshot breaker state into the checkpoint scope
        (``<checkpoint>.breaker.json``); no-op for in-memory databases."""
        if self.breaker is not None:
            persist_breaker(self.breaker, self.database.path)

    def _restore_breaker_state(self) -> bool:
        """Load the persisted breaker sidecar, if any.  Returns True when
        state was restored (the record replay must then be skipped —
        re-recording the same failures would double the counts)."""
        if self.breaker is None:
            return False
        return restore_breaker(self.breaker, self.database.path)

    def _record_failure(self, rec: Evaluation, *, persist: bool = True) -> None:
        """Feed a completed evaluation's classified failure (if any) to
        the circuit breaker, persisting changed state to the checkpoint
        scope so a resumed campaign keeps its quarantine."""
        if self.breaker is not None and not rec.ok:
            before = self.breaker.total_counted
            self.breaker.record(rec.config, failure_kind_of(rec))
            if persist and self.breaker.total_counted != before:
                self._persist_breaker()

    def _dequarantine(
        self, config: dict[str, Any], rng: np.random.Generator
    ) -> dict[str, Any] | None:
        """Replace a quarantined suggestion with an allowed sample.

        Pure pass-through while no cell has tripped (consumes no random
        state — the chaos-determinism guarantee).  Once regions are
        quarantined, draws replacement samples from the iteration's RNG
        stream; ``None`` when the reachable space appears fully
        quarantined, which ends the search gracefully.
        """
        if self.breaker is None or self.breaker.allows(config):
            return config
        self.quarantine_skips += 1
        for _ in range(64):
            cand = self.space.sample(rng)
            if self.breaker.allows(cand):
                return cand
        return None

    def _result_meta(self) -> dict[str, Any]:
        """Robustness annotations for the result (empty when clean)."""
        meta: dict[str, Any] = {}
        counts: dict[str, int] = {}
        for rec in self.database:
            kind = failure_kind_of(rec)
            if kind is not None:
                counts[kind.value] = counts.get(kind.value, 0) + 1
        if counts:
            meta["failure_counts"] = counts
        if self.breaker is not None and self.breaker.n_tripped:
            meta["quarantined"] = self.breaker.summary()
        if self.quarantine_skips:
            meta["quarantine_skipped"] = self.quarantine_skips
        warm = sum(
            1 for rec in self.database if rec.meta.get("warm_start")
        )
        if warm:
            # Seed history injected before the run (e.g. projected
            # Phase-1 observations): each such record consumed one unit
            # of budget without a fresh objective call.
            meta["warm_seeded"] = warm
        return meta

    # ------------------------------------------------------------------
    def run(self) -> BOResult:
        """Execute the BO loop to completion and return the result."""
        eval_cost = 0.0
        model_cost = 0.0
        n_new = 0

        if self.tracer is not None:
            # Re-emit eval events for replayed records: the persisted
            # evaluation stream of a resumed run must equal the stream of
            # an uninterrupted one (JsonlSink dedups by database index).
            for i, rec in enumerate(self.database):
                self._emit_eval(i, rec)

        if self.resume and len(self.database) > 0:
            self._replay_model_state()
            self._replay_acquisition_schedule()
            # Restore the circuit breaker from its checkpoint-scope
            # sidecar when one exists (exact pre-crash state, including
            # partial cell counts); otherwise rebuild it from the
            # checkpointed failure kinds.  Either way a resumed campaign
            # keeps its quarantine instead of re-paying failures in
            # already-quarantined cells.
            if not self._restore_breaker_state():
                for rec in self.database:
                    self._record_failure(rec, persist=False)
                if self.breaker is not None and self.breaker.total_counted:
                    self._persist_breaker()

        # --- initial design (partially replayed under crash recovery) ---
        # The full design is derived from a dedicated stream so a resumed
        # run regenerates the identical point set and evaluates only the
        # missing tail.
        if len(self.database) < self.n_initial:
            design = self.space.latin_hypercube(
                self.n_initial, np.random.default_rng(self._stream(self._INIT_STREAM))
            )
            for config in design[len(self.database):]:
                if self.breaker is not None and not self.breaker.allows(config):
                    # Design point landed in a quarantined cell: skip it
                    # (zero evaluations inside tripped regions).
                    self.quarantine_skips += 1
                    continue
                rec = self._traced_evaluate(config)
                self._record_failure(rec)
                self.database.append(rec)
                self._emit_eval(len(self.database) - 1, rec)
                eval_cost += rec.cost
                n_new += 1

        # --- sequential BO iterations -----------------------------------
        total_iters = self.max_evaluations
        tr = self.tracer if self.tracer is not None else NULL_TRACER
        while self.database.n_ok < self.max_evaluations:
            it = self.database.n_ok
            idx = len(self.database)  # index of the record this iteration adds
            stop = False
            with tr.span("bo_iteration", index=idx):
                rng = self._iter_rng(idx)
                self.acquisition.update(it, total_iters)
                fit, optimize, full = self._fit_schedule(idx)
                if self._model is None or fit:
                    model_cost += self._fit_model(
                        optimize=optimize, full=full, rng=rng
                    )
                if self._model is None:
                    # Degenerate data (e.g. constant objective): random fallback.
                    config = self.space.sample(rng)
                else:
                    best = self.database.best()
                    incumbent_cfg = {k: best.config[k] for k in self.space.names}
                    pool = self.candidate_pool
                    with tr.span("acquisition", n_candidates=self.n_candidates), \
                         tr.span(
                             "acquisition_batch",
                             pool=len(pool) if pool is not None else self.n_candidates,
                             backend=pool.backend if pool is not None else "sampled",
                             approx=self.last_surrogate,
                         ):
                        config = maximize_acquisition(
                            self.acquisition,
                            self._model,
                            self.space,
                            best.objective,
                            rng,
                            n_candidates=self.n_candidates,
                            incumbent_config=incumbent_cfg,
                            exclude_keys=self._exclude_keys(),
                            pool=pool,
                            acquisition_rng=rng,
                        )
                config = self._dequarantine(config, rng)
                if config is None:
                    # Every reachable cell is quarantined: degrade gracefully
                    # with whatever incumbents exist instead of burning the
                    # rest of the budget on guaranteed failures.
                    stop = True
                else:
                    rec = self._traced_evaluate(config)
                    self._record_failure(rec)
                    self.database.append(rec)
                    self._emit_eval(len(self.database) - 1, rec)
                    eval_cost += rec.cost
                    n_new += 1
                    if n_new > 4 * self.max_evaluations:
                        # Safety valve: a pathological objective failing
                        # every run must not loop forever.
                        stop = True
            if stop:
                break

        best = self.database.best()
        return BOResult(
            best_config=dict(best.config),
            best_objective=best.objective,
            database=self.database,
            n_evaluations=n_new,
            evaluation_cost=eval_cost,
            modeling_overhead=model_cost,
            meta=self._result_meta(),
        )
