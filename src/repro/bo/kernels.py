"""Covariance kernels for Gaussian-process surrogates.

All kernels operate on points encoded in the unit cube (see
:meth:`repro.space.SearchSpace.encode`) and use *automatic relevance
determination* (ARD): one lengthscale per input dimension.  Hyperparameters
are stored and optimized in log space, the standard parameterization that
keeps gradient-based marginal-likelihood optimization well conditioned.

The distance computations are fully vectorized (broadcasting over an
``(n, 1, d) - (1, m, d)`` difference tensor) per the project's HPC-Python
guidelines — no Python-level loops over data points.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Kernel", "RBF", "Matern32", "Matern52", "kernel_by_name"]


def _scaled_sqdist(X: np.ndarray, Z: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distance after per-axis scaling.

    Returns an ``(n, m)`` array of ``sum_k ((x_ik - z_jk) / l_k)^2``.
    Uses the ``|a|^2 + |b|^2 - 2ab`` expansion, which is O(nmd) with one
    GEMM instead of materializing the (n, m, d) difference tensor.
    """
    A = X / lengthscales
    B = Z / lengthscales
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)  # clip tiny negatives from cancellation
    return d2


class Kernel(ABC):
    """ARD stationary kernel with log-parameterized hyperparameters.

    Hyperparameter vector layout: ``[log_variance, log_l_1, ..., log_l_d]``.
    """

    def __init__(self, dim: int, variance: float = 1.0, lengthscales: np.ndarray | float = 1.0):
        if dim < 1:
            raise ValueError("kernel dimension must be >= 1")
        self.dim = dim
        self.variance = float(variance)
        ls = np.broadcast_to(np.asarray(lengthscales, dtype=float), (dim,)).copy()
        if np.any(ls <= 0) or self.variance <= 0:
            raise ValueError("variance and lengthscales must be positive")
        self.lengthscales = ls

    # -- hyperparameter vector interface (used by the MLE optimizer) -----
    @property
    def theta(self) -> np.ndarray:
        """Log-space hyperparameters ``[log var, log l_1..l_d]``."""
        return np.concatenate(([np.log(self.variance)], np.log(self.lengthscales)))

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if value.shape != (self.dim + 1,):
            raise ValueError(f"theta must have shape ({self.dim + 1},)")
        self.variance = float(np.exp(value[0]))
        self.lengthscales = np.exp(value[1:])

    @property
    def n_hyperparameters(self) -> int:
        return self.dim + 1

    def bounds(self) -> list[tuple[float, float]]:
        """Log-space optimization bounds: variance in [1e-4, 1e4],
        lengthscales in [1e-2, 1e2] of the unit cube."""
        return [(np.log(1e-4), np.log(1e4))] + [(np.log(1e-2), np.log(1e2))] * self.dim

    # -- covariance evaluation -------------------------------------------
    def __call__(self, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix between rows of ``X`` and ``Z`` (or ``X``)."""
        X, Z = self._prep(X, Z)
        return self._gram(_scaled_sqdist(X, Z, self.lengthscales), False)[0]

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of ``self(X, X)`` without forming the full matrix; for
        stationary kernels this is the constant signal variance."""
        return np.full(X.shape[0], self.variance)

    def gram_and_gradients(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``K(X, X)`` and its analytic ``dK/dtheta`` stack, one pass.

        Returns ``(K, dK)``: ``K`` is a fresh ``(n, n)`` array the caller
        may modify; ``dK`` has shape ``(n_hyp, n, n)`` and is written
        into ``out`` when given (the MLE reuses one buffer across its
        L-BFGS-B calls).  Row 0 is the variance gradient
        (``dK/d log v = K``); rows 1..d are the per-axis log-lengthscale
        gradients ``G * s_i^2``, with ``s_i = (x_i - z_i) / l_i`` and the
        kernel's radial factor ``G`` from :meth:`_gram`.  Both ``K`` and
        ``G`` come from one ``_scaled_sqdist`` pass, and analytic
        gradients keep the MLE fit O(d n^2) instead of the O(d) extra
        kernel evaluations of finite differencing.
        """
        X, _ = self._prep(X, None)
        n, d = X.shape
        K, G = self._gram(_scaled_sqdist(X, X, self.lengthscales), True)
        if out is None:
            out = np.empty((d + 1, n, n))
        out[0] = K
        S = out[1:]
        XT = X.T
        np.subtract(XT[:, :, None], XT[:, None, :], out=S)
        np.divide(S, self.lengthscales[:, None, None], out=S)
        np.square(S, out=S)
        np.multiply(S, G, out=S)
        return K, out

    @abstractmethod
    def _gram(
        self, d2: np.ndarray, radial: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Covariance from scaled squared distances ``d2``, plus — when
        ``radial`` — the matrix ``G`` with ``dK/d log l_i = G * s_i^2``
        (else ``None``).  The one formula :meth:`__call__` and
        :meth:`gram_and_gradients` share."""

    def _prep(self, X: np.ndarray, Z: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = X if Z is None else np.atleast_2d(np.asarray(Z, dtype=float))
        if X.shape[1] != self.dim or Z.shape[1] != self.dim:
            raise ValueError(
                f"kernel is {self.dim}-dimensional, got inputs with "
                f"{X.shape[1]} and {Z.shape[1]} columns"
            )
        return X, Z

    def clone(self) -> "Kernel":
        return type(self)(self.dim, self.variance, self.lengthscales.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dim={self.dim}, variance={self.variance:.3g}, "
            f"lengthscales~{np.exp(np.mean(np.log(self.lengthscales))):.3g})"
        )


class RBF(Kernel):
    """Squared-exponential kernel ``v * exp(-r^2 / 2)``.

    Infinitely smooth; the default surrogate kernel for continuous tuning
    objectives.
    """

    def _gram(self, d2, radial):
        K = self.variance * np.exp(-0.5 * d2)
        # d/d log l_i = K * s_i^2.
        return K, (K if radial else None)


class Matern32(Kernel):
    """Matérn kernel with nu=3/2: ``v * (1 + s r) exp(-s r)``, s=sqrt(3).

    Once-differentiable sample paths; a good match for runtime surfaces with
    kinks (occupancy cliffs, cache-capacity steps).
    """

    def _gram(self, d2, radial):
        sr = np.sqrt(3.0) * np.sqrt(d2)
        e = np.exp(-sr)
        K = self.variance * (1.0 + sr) * e
        # dK/dr = -3 v r exp(-sqrt(3) r); dr/d log l_i = -s_i^2 / r,
        # so dK/d log l_i = 3 v exp(-sqrt(3) r) * s_i^2.
        return K, (3.0 * self.variance * e if radial else None)


class Matern52(Kernel):
    """Matérn kernel with nu=5/2: the GPTune / standard-BO default.

    ``v * (1 + s r + s^2 r^2 / 3) exp(-s r)``, s=sqrt(5).
    """

    def _gram(self, d2, radial):
        sr = np.sqrt(5.0) * np.sqrt(d2)
        e = np.exp(-sr)
        p = 1.0 + sr
        K = self.variance * (p + sr * sr / 3.0) * e
        # dK/dr = -(5/3) v r (1 + sqrt(5) r) exp(-sqrt(5) r);
        # dK/d log l_i = (5/3) v (1 + sqrt(5) r) exp(-sqrt(5) r) * s_i^2.
        return K, ((5.0 / 3.0) * self.variance * p * e if radial else None)


_KERNELS = {"rbf": RBF, "matern32": Matern32, "matern52": Matern52}


def kernel_by_name(name: str, dim: int, **kwargs) -> Kernel:
    """Factory: ``kernel_by_name("matern52", d)``; raises on unknown names."""
    try:
        cls = _KERNELS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}") from None
    return cls(dim, **kwargs)
