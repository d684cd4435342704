"""Gaussian-process regression surrogate (the heart of the BO engine).

Implements exact GP regression with

* Cholesky-based training — the O(N^3) cost the paper leans on when arguing
  that joint high-dimensional searches with many evaluations become
  expensive ("the training complexity of Gaussian Processes ... is O(N^3)"),
* marginal-likelihood (MLE) hyperparameter fitting via multi-start L-BFGS-B
  with analytic gradients.  At the N <= 100 sizes a tuning campaign
  reaches, one likelihood call costs per-call overhead rather than flops,
  so each call builds ``K`` and its ``dK/dtheta`` stack in one kernel pass
  (into a stack buffer allocated once per fit) and calls LAPACK
  ``dpotrf``/``dpotrs`` directly: the same routines on the same operands
  as the scipy wrappers, so the value, the gradient and hence the
  L-BFGS-B path are bit-for-bit what the wrappers give
  (``tests/bo/test_mle_equivalence.py``),
* output normalization (zero mean / unit variance in y) so acquisition
  functions operate on a standardized scale,
* an optional fixed *prior mean function*, which is how transfer learning
  (:mod:`repro.bo.transfer`) injects a source-task model,
* an **incremental fast path** (:meth:`GaussianProcess.update`): appending
  observations extends the existing Cholesky factor by a rank-1 block in
  O(N^2) instead of refitting in O(N^3), with cached kernel cross-columns
  so repeated candidate scoring against a growing model costs O(N x C)
  per update instead of O(N^2 x C).

The incremental factor is the exact Cholesky of the extended covariance
(the leading principal block of a Cholesky factor is the factor of the
corresponding submatrix), so incremental and full-refit models agree to
floating-point rounding; callers bound the accumulated drift with periodic
full refits (see ``BayesianOptimizer(full_refit_every=...)``) and the
differential harness in ``tests/bo/harness`` measures it.

The implementation is deliberately self-contained (numpy + scipy only): it
is the GPTune stand-in documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize

from ..telemetry.core import NULL_TRACER
from .kernels import Kernel, Matern52

__all__ = ["GaussianProcess", "GPFitError"]

_LOG_2PI = np.log(2.0 * np.pi)


class GPFitError(RuntimeError):
    """Raised when the GP cannot be fit (e.g. degenerate data)."""


class GaussianProcess:
    """Exact GP regression model.

    Parameters
    ----------
    kernel:
        Covariance kernel (defaults to Matérn-5/2 with ARD, the common
        HPC-autotuner choice).
    noise:
        Initial observation-noise variance (log-optimized jointly with the
        kernel when ``optimize_noise=True``).  Tuning objectives are noisy
        (run-to-run variability), so the default is non-zero.
    optimize_noise:
        Whether to include the noise variance in the MLE fit.
    normalize_y:
        Standardize targets before fitting; predictions are transformed
        back.  Strongly recommended for runtime objectives whose magnitude
        varies by orders of magnitude.
    mean_function:
        Optional prior mean ``m(X) -> (n,)`` evaluated on encoded inputs.
        The GP then models the residual ``y - m(X)``.
    n_restarts:
        Multi-start count for the hyperparameter optimization.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        dim: int | None = None,
        noise: float = 1e-4,
        optimize_noise: bool = True,
        normalize_y: bool = True,
        mean_function: Callable[[np.ndarray], np.ndarray] | None = None,
        n_restarts: int = 3,
        random_state: int | np.random.Generator | None = None,
    ):
        if kernel is None:
            if dim is None:
                raise ValueError("provide either a kernel or dim")
            kernel = Matern52(dim)
        self.kernel = kernel
        if noise < 0:
            raise ValueError("noise variance must be >= 0")
        self.noise = float(noise)
        self.optimize_noise = bool(optimize_noise)
        self.normalize_y = bool(normalize_y)
        self.mean_function = mean_function
        self.n_restarts = int(n_restarts)
        self.rng = (
            random_state
            if isinstance(random_state, np.random.Generator)
            else np.random.default_rng(random_state)
        )

        self._X: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._y: np.ndarray | None = None  # normalized residual targets
        self._y_mean = 0.0
        self._y_std = 1.0
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        # Escalated Cholesky jitter persists across fits (and is carried
        # between model instances by the BO loop) so repeated near-singular
        # fits do not pay repeated failed factorization attempts.
        self._jitter = 1e-10
        # Cached noise-free train covariance (+ the theta it was built
        # with) so a same-hyperparameter full refit skips the O(N^2 d)
        # kernel evaluation, and the incremental path extends it in O(N d).
        self._K: np.ndarray | None = None
        self._K_theta: np.ndarray | None = None
        # Cross-column cache for repeated prediction on one candidate
        # matrix across incremental updates (see :meth:`_posterior_terms`).
        self._cross_cache: dict | None = None
        #: ``"full"`` after a fresh factorization, ``"incremental"`` after
        #: a rank-1 extension — the ``gp_fit`` span's ``mode`` attribute.
        self.last_fit_mode: str = "full"
        #: Observations appended via :meth:`update` since the last full
        #: factorization (the incremental chain length).
        self.n_incremental: int = 0

    # ------------------------------------------------------------------
    @property
    def is_fit(self) -> bool:
        return self._alpha is not None

    @property
    def n_train(self) -> int:
        return 0 if self._X is None else self._X.shape[0]

    @property
    def train_X(self) -> np.ndarray | None:
        """Training inputs (encoded); ``None`` before :meth:`fit`."""
        return self._X

    @property
    def train_y(self) -> np.ndarray | None:
        """Raw (unnormalized) training targets; ``None`` before fit."""
        return self._y_raw

    @property
    def cholesky_factor(self) -> np.ndarray | None:
        """Lower-triangular factor of ``K + (noise + jitter) I``."""
        return self._L

    @property
    def jitter(self) -> float:
        """Current (possibly escalated) Cholesky jitter."""
        return self._jitter

    @jitter.setter
    def jitter(self, value: float) -> None:
        value = float(value)
        if value <= 0:
            raise ValueError("jitter must be > 0")
        self._jitter = value

    # ------------------------------------------------------------------
    def _residual_targets(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.mean_function is not None:
            return y - np.asarray(self.mean_function(X), dtype=float).reshape(-1)
        return y

    def fit(
        self, X: np.ndarray, y: np.ndarray, *, optimize: bool = True, tracer=None
    ) -> "GaussianProcess":
        """Fit the GP to data, optionally optimizing hyperparameters.

        ``X`` must be ``(n, d)`` in the unit cube; ``y`` is ``(n,)``.
        An optional :class:`repro.telemetry.Tracer` receives an ``mle``
        span (attributes ``starts``, ``nfev``) when the hyperparameters
        are optimized, and a ``factorize`` span.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if X.shape[0] == 0:
            raise GPFitError("cannot fit a GP to zero observations")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise GPFitError("non-finite values in training data")

        self._set_data(X, y.copy())
        self._K = None  # new data invalidates the cached train covariance

        tracer = NULL_TRACER if tracer is None else tracer
        if optimize and X.shape[0] >= 2:
            with tracer.span("mle") as sp:
                sp.attrs["starts"], sp.attrs["nfev"] = (
                    self._optimize_hyperparameters()
                )
        with tracer.span("factorize"):
            self._factorize()
        return self

    def _set_data(self, X: np.ndarray, y_raw: np.ndarray) -> None:
        """Install the training set and its normalized residual targets.

        Raises :class:`GPFitError`, leaving the model untouched, when the
        prior mean makes a residual target non-finite.
        """
        resid = self._residual_targets(X, y_raw)
        if not np.all(np.isfinite(resid)):
            raise GPFitError("prior mean function returned non-finite values")
        self._X, self._y_raw = X, y_raw
        if self.normalize_y:
            self._y_mean = float(np.mean(resid))
            std = float(np.std(resid))
            self._y_std = std if std > 1e-12 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self._y = (resid - self._y_mean) / self._y_std

    def update(self, X_new: np.ndarray, y_new: np.ndarray) -> "GaussianProcess":
        """Append observations via a block Cholesky extension — O(N^2 q).

        The existing factor ``L`` of ``K + (noise + jitter) I`` is extended
        with all ``q`` new rows in three BLAS calls (one kernel
        cross-block, one triangular solve, one q x q Schur Cholesky)::

            L_ext = [[L,     0  ],        L12 = L^{-1} K(X, X_new)
                     [L12^T, L22]],       L22 = chol(K(X_new, X_new)
                                                     + (noise + jitter) I
                                                     - L12^T L12)

        Target normalization and ``alpha`` are recomputed from the full
        target vector (two O(N^2) triangular solves), so predictions match
        a same-hyperparameter full refit to floating-point rounding.
        Hyperparameters are *not* re-optimized.  If the Schur complement is
        not positive definite (numerical breakdown), the model
        transparently falls back to a full factorization; check
        :attr:`last_fit_mode`.
        """
        if not self.is_fit:
            raise GPFitError("update() called before fit()")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).reshape(-1)
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError(
                f"X_new has {X_new.shape[0]} rows but y_new has "
                f"{y_new.shape[0]} entries"
            )
        if X_new.shape[0] == 0:
            return self
        if X_new.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"expected {self._X.shape[1]} columns, got {X_new.shape[1]}"
            )
        if not np.all(np.isfinite(X_new)) or not np.all(np.isfinite(y_new)):
            raise GPFitError("non-finite values in update data")

        n, q = self._X.shape[0], X_new.shape[0]
        X_all = np.vstack([self._X, X_new])
        y_all = np.append(self._y_raw, y_new)
        K12 = self.kernel(self._X, X_new)  # (n, q) cross-block
        K22 = self.kernel(X_new)  # (q, q)
        L12 = solve_triangular(self._L, K12, lower=True)  # (n, q)
        S = K22 - L12.T @ L12
        S[np.diag_indices_from(S)] += self.noise + self._jitter
        try:
            if not np.all(np.isfinite(S)):
                raise np.linalg.LinAlgError("non-finite Schur complement")
            L22 = cholesky(S, lower=True)
        except np.linalg.LinAlgError:
            # Numerical breakdown: absorb the rows as plain data and
            # refactorize from scratch (all-or-nothing — no partially
            # extended factor is ever left behind).
            self._set_data(X_all, y_all)
            self._K = None
            self._factorize()  # resets caches, mode, and chain length
            return self

        self._set_data(X_all, y_all)

        # Extend the cached noise-free covariance in O(N q d).
        if self._K is not None and self._K.shape[0] == n:
            K_ext = np.empty((n + q, n + q))
            K_ext[:n, :n] = self._K
            K_ext[:n, n:] = K12
            K_ext[n:, :n] = K12.T
            K_ext[n:, n:] = K22
            self._K = K_ext
        L_ext = np.zeros((n + q, n + q))
        L_ext[:n, :n] = self._L
        L_ext[n:, :n] = L12.T
        L_ext[n:, n:] = L22
        self._L = L_ext
        self._alpha = cho_solve((self._L, True), self._y)
        self.last_fit_mode = "incremental"
        self.n_incremental += q
        return self

    # ------------------------------------------------------------------
    def _theta_full(self) -> np.ndarray:
        t = self.kernel.theta
        if self.optimize_noise:
            t = np.concatenate((t, [np.log(max(self.noise, 1e-12))]))
        return t

    def _set_theta_full(self, theta: np.ndarray) -> None:
        k = self.kernel.n_hyperparameters
        self.kernel.theta = theta[:k]
        if self.optimize_noise:
            self.noise = float(np.exp(theta[k]))

    def _bounds_full(self) -> list[tuple[float, float]]:
        b = self.kernel.bounds()
        if self.optimize_noise:
            b = b + [(np.log(1e-8), np.log(1.0))]
        return b

    def _neg_log_marginal_likelihood(
        self, theta: np.ndarray, work: tuple | None = None
    ) -> tuple[float, np.ndarray]:
        """NLML and its gradient w.r.t. the full log-hyperparameter vector.

        Gradient uses the standard trace identity
        ``dNLL/dt = -0.5 tr((aa^T - K^{-1}) dK/dt)`` with the kernel's
        analytic ``dK/dtheta`` stack, built in the same distance pass as
        ``K`` (:meth:`Kernel.gram_and_gradients`) — no finite differences.
        ``work`` is the ``(stack buffer, identity)`` pair
        :meth:`_optimize_hyperparameters` allocates once per fit.

        LAPACK ``dpotrf``/``dpotrs`` are called directly: they are the
        routines ``scipy.linalg.cholesky``/``cho_solve`` run, on the same
        operands, minus the wrappers' finite checks and batch dispatch
        (training data and targets are validated finite on entry).  The
        result is bit-for-bit the wrappers' result; so is the explicit
        ``K^{-1}`` — a ``dpotri`` inverse or a trace identity that never
        forms it would change the bits (and ``dpotri`` is slower here).
        """
        self._set_theta_full(theta)
        X, y = self._X, self._y
        n = X.shape[0]
        buf, eye = work if work is not None else (None, np.eye(n))
        K, dK = self.kernel.gram_and_gradients(X, out=buf)  # dK: (n_hyp, n, n)
        K.flat[:: n + 1] += self.noise + 1e-10
        L, info = dpotrf(K, lower=True, clean=True)
        if info != 0:
            return 1e25, np.zeros_like(theta)
        alpha, _ = dpotrs(L, y, lower=True)
        nll = 0.5 * (y @ alpha) + np.sum(np.log(np.diag(L))) + 0.5 * n * _LOG_2PI

        # Gradient: dNLL/dt = -0.5 tr((alpha alpha^T - K^{-1}) dK/dt)
        Kinv, _ = dpotrs(L, eye, lower=True)
        W = np.outer(alpha, alpha) - Kinv  # (n, n)

        grads = np.empty_like(theta)
        k_hyp = self.kernel.n_hyperparameters
        grads[:k_hyp] = -0.5 * np.tensordot(dK, W, axes=([1, 2], [0, 1]))
        if self.optimize_noise:
            # dK/d log(noise) = noise * I
            grads[k_hyp] = -0.5 * self.noise * np.trace(W)
        return float(nll), grads

    def _optimize_hyperparameters(self) -> tuple[int, int]:
        """Multi-start L-BFGS-B MLE; returns ``(starts, nfev)``."""
        bounds = self._bounds_full()
        starts = [self._theta_full()]
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        for _ in range(max(0, self.n_restarts - 1)):
            starts.append(lo + self.rng.random(len(bounds)) * (hi - lo))

        n = self._X.shape[0]
        work = (np.empty((self.kernel.n_hyperparameters, n, n)), np.eye(n))
        best_nll, best_theta = np.inf, self._theta_full()
        nfev = 0
        for t0 in starts:
            res = minimize(
                self._neg_log_marginal_likelihood,
                t0,
                args=(work,),
                jac=True,
                bounds=bounds,
                method="L-BFGS-B",
                options={"maxiter": 100},
            )
            nfev += int(res.nfev)
            if np.isfinite(res.fun) and res.fun < best_nll:
                best_nll, best_theta = float(res.fun), res.x
        self._set_theta_full(best_theta)
        return len(starts), nfev

    def _train_covariance(self) -> np.ndarray:
        """Noise-free ``K(X, X)``, reused when theta is unchanged."""
        theta = self.kernel.theta
        if (
            self._K is not None
            and self._K.shape[0] == self._X.shape[0]
            and self._K_theta is not None
            and np.array_equal(self._K_theta, theta)
        ):
            return self._K
        self._K = self.kernel(self._X)
        self._K_theta = theta
        return self._K

    def _factorize(self) -> None:
        X, y = self._X, self._y
        K = self._train_covariance()
        # Start from the persisted jitter: a previous fit that had to
        # escalate does not re-pay the failed Cholesky attempts.
        jitter = self._jitter
        for _ in range(8):
            try:
                self._L = cholesky(
                    K + (self.noise + jitter) * np.eye(X.shape[0]), lower=True
                )
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:
            raise GPFitError("covariance matrix not positive definite even with jitter")
        self._jitter = jitter
        self._cross_cache = None
        self.last_fit_mode = "full"
        self.n_incremental = 0
        self._alpha = cho_solve((self._L, True), y)

    # ------------------------------------------------------------------
    def _posterior_terms(
        self, X: np.ndarray, *, need_V: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Cross-kernel ``Ks`` (m, n) and whitened columns ``V`` (n, m).

        Caches both, keyed on the candidate matrix *object*: scoring the
        same candidate pool again after :meth:`update` extends the cached
        arrays with one O(N x C) row per new observation instead of
        redoing the full O(N^2 x C) triangular solve — the fast path the
        constant-liar batch proposer rides.  The cache is dropped on any
        full factorization (data or hyperparameter change).
        """
        n = self._X.shape[0]
        c = self._cross_cache
        if c is not None and c["X"] is X and 0 < c["n"] <= n:
            Ks, V = c["Ks"], c["V"]
            q = n - c["n"]
            if q:
                K2 = self.kernel(X, self._X[c["n"]:])  # (m, q)
                Ks = np.hstack([Ks, K2])
                if V is not None:
                    # L = [[L11, 0], [L21, L22]] -> only the new rows of
                    # the whitened columns need solving.
                    L21 = self._L[c["n"]:, : c["n"]]
                    L22 = self._L[c["n"]:, c["n"]:]
                    V = np.vstack(
                        [V, solve_triangular(L22, K2.T - L21 @ V, lower=True)]
                    )
        else:
            Ks, V = self.kernel(X, self._X), None
        if need_V and V is None:
            V = solve_triangular(self._L, Ks.T, lower=True)
        self._cross_cache = {"X": X, "n": n, "Ks": Ks, "V": V}
        return Ks, V

    def predict(
        self, X: np.ndarray, *, return_std: bool = True
    ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """Posterior mean (and standard deviation) at encoded points ``X``.

        The returned std includes neither the observation noise nor the
        prior-mean uncertainty — it is the epistemic (model) uncertainty the
        acquisition functions need.
        """
        if not self.is_fit:
            raise GPFitError("predict() called before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks, V = self._posterior_terms(X, need_V=return_std)
        mu = Ks @ self._alpha  # normalized residual mean
        mu = mu * self._y_std + self._y_mean
        if self.mean_function is not None:
            mu = mu + np.asarray(self.mean_function(X), dtype=float).reshape(-1)
        if not return_std:
            return mu
        var = self.kernel.diag(X) - np.sum(V * V, axis=0)
        np.maximum(var, 1e-12, out=var)
        std = np.sqrt(var) * self._y_std
        return mu, std

    def log_marginal_likelihood(self) -> float:
        """NLML at the current hyperparameters (negated: higher is better)."""
        nll, _ = self._neg_log_marginal_likelihood(self._theta_full())
        self._factorize()
        return -nll

    def sample_posterior(
        self, X: np.ndarray, n_samples: int = 1, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw joint posterior samples at ``X`` -> ``(n_samples, m)``.

        Used by Thompson-sampling style acquisition strategies and by the
        tests that check posterior calibration.
        """
        rng = rng or self.rng
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks, V = self._posterior_terms(X, need_V=True)
        mu = Ks @ self._alpha * self._y_std + self._y_mean
        if self.mean_function is not None:
            mu = mu + np.asarray(self.mean_function(X), dtype=float).reshape(-1)
        cov = self.kernel(X) - V.T @ V
        cov = (cov + cov.T) / 2.0 + 1e-10 * np.eye(X.shape[0])
        Lc = cholesky(cov, lower=True)
        z = rng.standard_normal((n_samples, X.shape[0]))
        return mu[None, :] + (z @ Lc.T) * self._y_std
