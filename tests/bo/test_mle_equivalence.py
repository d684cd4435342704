"""The one-pass marginal likelihood is bit-for-bit the two-pass original.

``GaussianProcess._neg_log_marginal_likelihood`` builds ``K`` and its
``dK/dtheta`` stack from one distance pass
(:meth:`Kernel.gram_and_gradients`) and calls LAPACK ``dpotrf``/``dpotrs``
directly.  Below is a frozen copy of the earlier implementation: the
kernel evaluated twice, the radial factor a third distance pass, the
stack filled one dimension at a time, and the scipy ``cholesky`` /
``cho_solve`` wrappers.  Every comparison is made at runtime, never
against committed digests, because BLAS kernels differ between CPUs; CI
runs this file under the default BLAS threading and again with
``OPENBLAS_NUM_THREADS=1``.

Also here: finite-difference checks of the analytic gradient for every
kernel, which the equivalence sweep alone cannot give (a wrong formula
copied faithfully stays wrong).
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky

from repro.bo import gp as gp_module
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import RBF, Matern32, Matern52

KERNELS = (RBF, Matern32, Matern52)
_LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Frozen copy of the two-pass implementation
# ---------------------------------------------------------------------------
def _frozen_sqdist(X, Z, lengthscales):
    A = X / lengthscales
    B = Z / lengthscales
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _frozen_call(kernel, X, Z=None):
    Z = X if Z is None else Z
    d2 = _frozen_sqdist(X, Z, kernel.lengthscales)
    if isinstance(kernel, RBF):
        return kernel.variance * np.exp(-0.5 * d2)
    r = np.sqrt(d2)
    if isinstance(kernel, Matern32):
        sr = np.sqrt(3.0) * r
        return kernel.variance * (1.0 + sr) * np.exp(-sr)
    sr = np.sqrt(5.0) * r
    return kernel.variance * (1.0 + sr + sr * sr / 3.0) * np.exp(-sr)


def _frozen_radial(kernel, X):
    if isinstance(kernel, RBF):
        return _frozen_call(kernel, X)
    r = np.sqrt(_frozen_sqdist(X, X, kernel.lengthscales))
    if isinstance(kernel, Matern32):
        return 3.0 * kernel.variance * np.exp(-np.sqrt(3.0) * r)
    sr = np.sqrt(5.0) * r
    return (5.0 / 3.0) * kernel.variance * (1.0 + sr) * np.exp(-sr)


def frozen_theta_gradients(kernel, X):
    n, d = X.shape
    K = _frozen_call(kernel, X)
    out = np.empty((kernel.n_hyperparameters, n, n))
    out[0] = K
    radial = _frozen_radial(kernel, X)
    for i in range(d):
        s2 = ((X[:, i][:, None] - X[:, i][None, :]) / kernel.lengthscales[i]) ** 2
        out[1 + i] = radial * s2
    return out


def frozen_nlml(self, theta, *_):
    """The earlier ``GaussianProcess._neg_log_marginal_likelihood``."""
    self._set_theta_full(theta)
    X, y = self._X, self._y
    n = X.shape[0]
    K = _frozen_call(self.kernel, X)
    K[np.diag_indices_from(K)] += self.noise + 1e-10
    try:
        L = cholesky(K, lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = cho_solve((L, True), y)
    nll = 0.5 * (y @ alpha) + np.sum(np.log(np.diag(L))) + 0.5 * n * _LOG_2PI
    Kinv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grads = np.empty_like(theta)
    dK = frozen_theta_gradients(self.kernel, X)
    k_hyp = self.kernel.n_hyperparameters
    grads[:k_hyp] = -0.5 * np.tensordot(dK, W, axes=([1, 2], [0, 1]))
    if self.optimize_noise:
        grads[k_hyp] = -0.5 * self.noise * np.trace(W)
    return float(nll), grads


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
def _mean(X):
    return 0.3 * np.sin(3.0 * X[:, 0]) + X.sum(axis=1)


def _data(rng, n, d):
    X = rng.random((n, d))
    y = np.sin(4.0 * X @ np.linspace(1.0, 0.2, d)) + 0.05 * rng.standard_normal(n)
    return X, y


def _model(kernel_cls, X, y, *, optimize_noise, mean):
    gp = GaussianProcess(
        kernel_cls(X.shape[1]),
        optimize_noise=optimize_noise,
        mean_function=_mean if mean else None,
        random_state=0,
    )
    gp.fit(X, y, optimize=False)
    return gp


def _thetas(gp, rng, count):
    """Random interior points plus the all-low / all-high bound corners
    and two mixed corners."""
    b = np.array(gp._bounds_full())
    lo, hi = b[:, 0], b[:, 1]
    k = len(lo)
    mixed = np.where(np.arange(k) % 2 == 0, lo, hi)
    out = [lo.copy(), hi.copy(), mixed, np.where(mixed == lo, hi, lo)]
    out += [lo + rng.random(k) * (hi - lo) for _ in range(count)]
    return out


def _assert_same(gp, theta, work):
    new = gp._neg_log_marginal_likelihood(theta.copy(), work)
    old = frozen_nlml(gp, theta.copy())
    assert new[0] == old[0], (new[0], old[0])
    assert np.array_equal(new[1], old[1]), np.max(np.abs(new[1] - old[1]))


# ---------------------------------------------------------------------------
# Kernel pieces
# ---------------------------------------------------------------------------
class TestKernelIdentity:
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (17, 5), (60, 12)])
    def test_gram_and_gradients_match_two_pass(self, kernel_cls, n, d):
        rng = np.random.default_rng(n * 100 + d)
        for _ in range(3):
            k = kernel_cls(d)
            k.theta = np.array([b[0] + rng.random() * (b[1] - b[0])
                                for b in k.bounds()])
            X = rng.random((n, d))
            K, dK = k.gram_and_gradients(X)
            assert np.array_equal(K, _frozen_call(k, X))
            assert np.array_equal(dK, frozen_theta_gradients(k, X))
            assert np.array_equal(k(X), _frozen_call(k, X))
            Z = rng.random((n + 3, d))
            assert np.array_equal(k(X, Z), _frozen_call(k, X, Z))

    def test_out_buffer_is_filled_in_place(self):
        k = Matern52(3)
        X = np.random.default_rng(1).random((9, 3))
        buf = np.full((4, 9, 9), np.nan)
        K, dK = k.gram_and_gradients(X, out=buf)
        assert dK is buf
        assert np.array_equal(dK, frozen_theta_gradients(k, X))
        K[0, 0] += 1.0  # K is the caller's to modify; the stack is not a view
        assert dK[0, 0, 0] == K[0, 0] - 1.0


# ---------------------------------------------------------------------------
# NLML sweep
# ---------------------------------------------------------------------------
_SWEEP = list(itertools.product(
    KERNELS, [2, 7, 31, 95], [1, 3, 10], [True, False], [False, True]
))


class TestNLMLIdentity:
    @pytest.mark.parametrize(
        "kernel_cls,n,d,optimize_noise,mean", _SWEEP,
        ids=[f"{k.__name__}-n{n}-d{d}-noise{int(o)}-mean{int(m)}"
             for k, n, d, o, m in _SWEEP],
    )
    def test_value_and_gradient_bit_identical(
        self, kernel_cls, n, d, optimize_noise, mean
    ):
        rng = np.random.default_rng([n, d, int(optimize_noise), int(mean)])
        X, y = _data(rng, n, d)
        gp = _model(kernel_cls, X, y, optimize_noise=optimize_noise, mean=mean)
        work = (np.empty((gp.kernel.n_hyperparameters, n, n)), np.eye(n))
        for theta in _thetas(gp, rng, 6):
            _assert_same(gp, theta, work)
            _assert_same(gp, theta, None)  # the unbuffered path too

    def test_failed_factorization_returns_sentinel(self):
        # Duplicate rows, zero noise and a variance far past the bounds:
        # the 1e-10 diagonal is lost to rounding and dpotrf reports a
        # non-positive pivot.
        X = np.tile(np.array([[0.2, 0.4]]), (6, 1))
        X[3:] = 0.9
        gp = GaussianProcess(RBF(2), noise=0.0, optimize_noise=False)
        gp.fit(X, np.arange(6.0), optimize=False)
        theta = np.array([np.log(1e12), 0.0, 0.0])
        new = gp._neg_log_marginal_likelihood(theta.copy())
        assert new[0] == frozen_nlml(gp, theta.copy())[0] == 1e25
        assert np.array_equal(new[1], np.zeros(3))


# ---------------------------------------------------------------------------
# Whole fits and a whole job
# ---------------------------------------------------------------------------
def _fit_state(kernel_cls, n, d, optimize_noise, seed):
    rng = np.random.default_rng(seed)
    X, y = _data(rng, n, d)
    gp = GaussianProcess(
        kernel_cls(d), optimize_noise=optimize_noise, n_restarts=3,
        random_state=seed,
    )
    gp.fit(X, y)
    return gp.kernel.theta, gp.noise, gp.cholesky_factor


class TestFitIdentity:
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize("optimize_noise", [True, False])
    def test_fitted_hyperparameters_and_factor(
        self, kernel_cls, optimize_noise, monkeypatch
    ):
        for n, d, seed in [(12, 2, 0), (40, 6, 1)]:
            new = _fit_state(kernel_cls, n, d, optimize_noise, seed)
            with monkeypatch.context() as m:
                m.setattr(GaussianProcess, "_neg_log_marginal_likelihood",
                          frozen_nlml)
                old = _fit_state(kernel_cls, n, d, optimize_noise, seed)
            assert np.array_equal(new[0], old[0])
            assert new[1] == old[1]
            assert np.array_equal(new[2], old[2])

    def test_campaign_job_fingerprint(self, tmp_path, monkeypatch):
        from repro.service import JobSpec, run_job

        spec = JobSpec(kind="campaign",
                       params={"case": 2, "seed": 3, "budget": 14})
        new = run_job(spec, tmp_path / "new")
        with monkeypatch.context() as m:
            m.setattr(GaussianProcess, "_neg_log_marginal_likelihood",
                      frozen_nlml)
            old = run_job(spec, tmp_path / "old")
        assert new["fingerprint"] == old["fingerprint"]
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)

    def test_minimize_still_called_through_module_global(self, monkeypatch):
        calls = []
        real = gp_module.minimize

        def spy(*a, **k):
            calls.append(1)
            return real(*a, **k)

        monkeypatch.setattr(gp_module, "minimize", spy)
        _fit_state(Matern52, 8, 2, True, 0)
        assert len(calls) == 3


# ---------------------------------------------------------------------------
# Finite-difference gradient check
# ---------------------------------------------------------------------------
class TestGradientFiniteDifference:
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize("optimize_noise", [True, False])
    def test_analytic_matches_central_difference(self, kernel_cls, optimize_noise):
        rng = np.random.default_rng(7)
        X, y = _data(rng, 25, 3)
        gp = _model(kernel_cls, X, y, optimize_noise=optimize_noise, mean=False)
        b = np.array(gp._bounds_full())
        h = 1e-5
        for _ in range(4):
            # Keep away from the bounds' extremes, where K is near singular
            # and the central difference itself loses its digits.
            theta = b[:, 0] + (0.3 + 0.4 * rng.random(len(b))) * (b[:, 1] - b[:, 0])
            _, grad = gp._neg_log_marginal_likelihood(theta.copy())
            fd = np.empty_like(theta)
            for i in range(len(theta)):
                e = np.zeros_like(theta)
                e[i] = h
                fp, _ = gp._neg_log_marginal_likelihood(theta + e)
                fm, _ = gp._neg_log_marginal_likelihood(theta - e)
                fd[i] = (fp - fm) / (2.0 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-5)
