"""Tests for the Gaussian-process surrogate."""

import numpy as np
import pytest

from repro.bo import RBF, GaussianProcess, GPFitError, Matern52


def toy_data(n=20, d=2, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2
    if noise:
        y = y + rng.normal(0, noise, n)
    return X, y


class TestFit:
    def test_interpolates_noise_free_data(self):
        X, y = toy_data(15)
        gp = GaussianProcess(dim=2, noise=1e-8, optimize_noise=False, random_state=0)
        gp.fit(X, y)
        mu, std = gp.predict(X)
        assert np.allclose(mu, y, atol=1e-3)
        assert np.all(std < 0.1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess(dim=2).predict(np.zeros((1, 2)))

    def test_empty_data_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess(dim=2).fit(np.empty((0, 2)), np.empty(0))

    def test_nonfinite_data_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess(dim=1).fit(np.array([[0.5]]), np.array([np.nan]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianProcess(dim=2).fit(np.zeros((3, 2)), np.zeros(4))

    def test_requires_kernel_or_dim(self):
        with pytest.raises(ValueError):
            GaussianProcess()
        assert GaussianProcess(kernel=RBF(3)).kernel.dim == 3

    def test_single_point_fit(self):
        gp = GaussianProcess(dim=1, random_state=0)
        gp.fit(np.array([[0.5]]), np.array([2.0]))
        mu = gp.predict(np.array([[0.5]]), return_std=False)
        assert mu[0] == pytest.approx(2.0, abs=1e-3)

    def test_constant_targets(self):
        gp = GaussianProcess(dim=1, random_state=0)
        gp.fit(np.linspace(0, 1, 5).reshape(-1, 1), np.full(5, 3.0))
        mu = gp.predict(np.array([[0.3]]), return_std=False)
        assert mu[0] == pytest.approx(3.0, abs=1e-2)


class TestPrediction:
    def test_uncertainty_grows_away_from_data(self):
        X = np.array([[0.1], [0.2], [0.3]])
        y = np.array([1.0, 2.0, 1.5])
        gp = GaussianProcess(dim=1, random_state=0).fit(X, y)
        _, std_near = gp.predict(np.array([[0.2]]))
        _, std_far = gp.predict(np.array([[0.95]]))
        assert std_far[0] > std_near[0]

    def test_mean_only(self):
        X, y = toy_data(10)
        gp = GaussianProcess(dim=2, random_state=0).fit(X, y)
        out = gp.predict(X, return_std=False)
        assert out.shape == (10,)

    def test_generalization_beats_mean_baseline(self):
        X, y = toy_data(40, seed=1, noise=0.05)
        Xt, yt = toy_data(40, seed=2, noise=0.0)
        gp = GaussianProcess(dim=2, random_state=0).fit(X, y)
        pred = gp.predict(Xt, return_std=False)
        mse_gp = np.mean((pred - yt) ** 2)
        mse_mean = np.mean((np.mean(y) - yt) ** 2)
        assert mse_gp < 0.3 * mse_mean

    def test_normalization_handles_large_scales(self):
        X, y = toy_data(20)
        gp = GaussianProcess(dim=2, random_state=0).fit(X, 1e6 * y + 5e7)
        pred = gp.predict(X, return_std=False)
        assert np.allclose(pred, 1e6 * y + 5e7, rtol=1e-2)


class TestHyperparameters:
    def test_mle_improves_likelihood(self):
        X, y = toy_data(25, noise=0.05)
        gp0 = GaussianProcess(kernel=Matern52(2), random_state=0)
        gp0.fit(X, y, optimize=False)
        ll_before = gp0.log_marginal_likelihood()
        gp1 = GaussianProcess(kernel=Matern52(2), random_state=0)
        gp1.fit(X, y, optimize=True)
        ll_after = gp1.log_marginal_likelihood()
        assert ll_after >= ll_before - 1e-6

    def test_noise_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            GaussianProcess(dim=1, noise=-1.0)


class TestMeanFunction:
    def test_prior_mean_dominates_far_from_data(self):
        prior = lambda X: 10.0 * np.ones(X.shape[0])  # noqa: E731
        X = np.array([[0.05]])
        y = np.array([10.2])
        gp = GaussianProcess(dim=1, mean_function=prior, random_state=0).fit(X, y)
        mu = gp.predict(np.array([[0.95]]), return_std=False)
        # Far from the single observation the posterior falls back to the prior.
        assert mu[0] == pytest.approx(10.0, abs=0.5)

    def test_residual_modeling(self):
        X, y = toy_data(20)
        prior = lambda Z: np.sin(4 * Z[:, 0])  # noqa: E731  (part of truth)
        gp = GaussianProcess(dim=2, mean_function=prior, random_state=0).fit(X, y)
        pred = gp.predict(X, return_std=False)
        assert np.allclose(pred, y, atol=0.05)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_non_finite_prior_mean_fit_raises_gp_fit_error(self, bad, optimize):
        X, y = toy_data(10)

        def prior(Z):
            m = np.zeros(Z.shape[0])
            m[-1] = bad
            return m

        gp = GaussianProcess(dim=2, mean_function=prior, random_state=0)
        with pytest.raises(GPFitError, match="prior mean"):
            gp.fit(X, y, optimize=optimize)
        assert not gp.is_fit and gp.train_X is None

    def test_non_finite_prior_mean_update_raises_and_keeps_model(self):
        X, y = toy_data(12)
        prior = lambda Z: np.where(Z[:, 0] > 2.0, np.nan, 0.0)  # noqa: E731
        gp = GaussianProcess(dim=2, mean_function=prior, random_state=0)
        gp.fit(X[:10], y[:10])
        L, mu = gp.cholesky_factor.copy(), gp.predict(X, return_std=False)
        X_bad = X[10:].copy()
        X_bad[0, 0] = 3.0  # outside the cube, where the prior mean is NaN
        with pytest.raises(GPFitError, match="prior mean"):
            gp.update(X_bad, y[10:])
        assert gp.n_train == 10
        assert np.array_equal(gp.cholesky_factor, L)
        assert np.array_equal(gp.predict(X, return_std=False), mu)
        gp.update(X[10:], y[10:])  # the model is still usable
        assert gp.n_train == 12 and gp.last_fit_mode == "incremental"


class TestPosteriorSampling:
    def test_sample_shapes_and_spread(self):
        X, y = toy_data(10)
        gp = GaussianProcess(dim=2, random_state=0).fit(X, y)
        Z = np.random.default_rng(1).random((6, 2))
        S = gp.sample_posterior(Z, n_samples=64)
        assert S.shape == (64, 6)
        mu, std = gp.predict(Z)
        assert np.allclose(S.mean(axis=0), mu, atol=4 * std.max() / 8 + 0.2)


class TestJitterPersistence:
    """Regression: escalated Cholesky jitter must persist across fits.

    Previously every fit() restarted the escalation ladder at the base
    jitter, so a sequence of near-singular fits paid the same failed
    factorization attempts over and over.
    """

    @staticmethod
    def _strict_cholesky(gp, X, calls, min_jitter=1e-7):
        """A cholesky stand-in rejecting diagonals below ``min_jitter``.

        LAPACK's potrf tolerates genuinely singular kernels surprisingly
        well, so near-singularity is *simulated*: the GP adds
        ``noise + jitter`` to the kernel diagonal, and (with noise 0) the
        stand-in refuses to factorize until the escalation ladder reaches
        ``min_jitter`` — a deterministic stress of the retry logic.
        """
        import repro.bo.gp as gp_module

        real = gp_module.cholesky
        k_diag = float(gp.kernel.diag(X[:1])[0])

        def strict(A, *args, **kwargs):
            jitter = A[0, 0] - k_diag
            calls.append(jitter)
            if jitter < min_jitter:
                raise np.linalg.LinAlgError("simulated near-singular")
            return real(A, *args, **kwargs)

        return strict

    def test_escalated_jitter_persists(self, monkeypatch):
        import repro.bo.gp as gp_module

        rng = np.random.default_rng(0)
        X, y = rng.random((12, 2)), rng.random(12)
        gp = GaussianProcess(dim=2, noise=0.0, optimize_noise=False,
                             random_state=0)
        base = gp.jitter
        calls: list = []
        monkeypatch.setattr(
            gp_module, "cholesky", self._strict_cholesky(gp, X, calls)
        )

        gp.fit(X, y, optimize=False)
        assert gp.jitter > base          # escalation happened (1e-10 -> 1e-6)
        assert len(calls) > 1            # ... after real failed attempts
        escalated = gp.jitter

        # The regression: a refit must start from the escalated value,
        # succeeding on its first factorization attempt instead of
        # replaying the whole failed ladder.
        calls.clear()
        gp.fit(X, y, optimize=False)
        assert gp.jitter == escalated
        assert len(calls) == 1

    def test_unfactorizable_matrix_still_raises(self, monkeypatch):
        import repro.bo.gp as gp_module

        rng = np.random.default_rng(0)
        X, y = rng.random((6, 2)), rng.random(6)
        gp = GaussianProcess(dim=2, noise=0.0, optimize_noise=False,
                             random_state=0)
        monkeypatch.setattr(
            gp_module, "cholesky",
            self._strict_cholesky(gp, X, [], min_jitter=np.inf),
        )
        with pytest.raises(GPFitError):
            gp.fit(X, y, optimize=False)

    def test_jitter_setter_validates(self):
        gp = GaussianProcess(dim=2)
        with pytest.raises(ValueError):
            gp.jitter = 0.0
        with pytest.raises(ValueError):
            gp.jitter = -1e-10
        gp.jitter = 1e-6
        assert gp.jitter == 1e-6
