import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaincinv

from orekf.gating import (
    AOR_TAU_P,
    AOR_TAU_THETA,
    GatingConfig,
    Verdict,
    _threshold_test,
    aor,
    aorp,
    chi2_full,
    chi2_partial,
    chi2_quantile,
)
from orekf.update_direct import PoseMeasurement
from orekf.geom3 import QUAT_IDENTITY


def quantile_oracle(dof, prob, tol=1e-10):
    """Invert the chi-square CDF by bisection on a quadrature-integrated pdf;
    independent of chi2_quantile's tail formulas and of scipy. The
    substitution x = u^2 removes the integrable singularity at 0 for odd
    dof."""
    from math import gamma

    norm = 2.0 ** (dof / 2.0) * gamma(dof / 2.0)

    def cdf(x, n=4000):
        if x <= 0:
            return 0.0
        u = np.linspace(0.0, np.sqrt(x), n + 1)
        ys = 2.0 * u ** (dof - 1) * np.exp(-0.5 * u * u) / norm
        h = u[1] - u[0]
        return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum()
                          + 2 * ys[2:-1:2].sum())

    lo, hi = 0.0, 200.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def meas(sig_p, sig_t):
    return PoseMeasurement("box", np.zeros(3), QUAT_IDENTITY.copy(),
                           np.asarray(sig_p, dtype=float) ** 2,
                           np.asarray(sig_t, dtype=float) ** 2)


class TestQuantile:
    def test_against_quadrature_oracle(self):
        assert abs(chi2_quantile(6, 0.95) - quantile_oracle(6, 0.95, 1e-6)) < 1e-5
        assert abs(chi2_quantile(3, 0.95) - quantile_oracle(3, 0.95, 1e-6)) < 1e-5

    def test_known_critical_values(self):
        assert abs(chi2_quantile(6, 0.95) - 12.5916) < 1e-3
        assert abs(chi2_quantile(3, 0.95) - 7.8147) < 1e-3

    def test_deterministic(self):
        assert chi2_quantile(6, 0.95) == chi2_quantile(6, 0.95)

    @pytest.mark.parametrize("dof", [3, 6])
    def test_against_incomplete_gamma_inverse(self, dof):
        """scipy's gammaincinv is the oracle, from alpha = 1e-6 (far upper
        tail) to alpha = 0.999 (near zero, where 1 - sf would cancel)."""
        alphas = np.geomspace(1e-6, 0.999, 400)
        q = np.array([chi2_quantile(dof, 1.0 - a) for a in alphas])
        expect = 2.0 * gammaincinv(0.5 * dof, 1.0 - alphas)
        assert_allclose(q, expect, rtol=1e-14, atol=0.0)
        assert np.all(np.diff(q) < 0)

    @pytest.mark.parametrize("dof, prob", [(0, 0.5), (2.5, 0.5), (3, 0.0),
                                           (3, 1.0), (3, np.nan)])
    def test_rejects_a_bad_argument(self, dof, prob):
        with pytest.raises(ValueError):
            chi2_quantile(dof, prob)


class TestChi2Full:
    def test_zero_residual_accepts(self):
        h = np.zeros((6, 21))
        h[:, :6] = np.eye(6)
        d = chi2_full(np.zeros(6), h, np.eye(21) * 0.1, np.eye(6) * 0.1, 0.05)
        assert d.verdict is Verdict.ACCEPT_ALL
        assert d.statistic == 0.0

    def test_large_residual_rejects(self):
        h = np.zeros((6, 21))
        h[:, :6] = np.eye(6)
        d = chi2_full(np.ones(6) * 10, h, np.eye(21) * 0.1, np.eye(6) * 0.1,
                      0.05)
        assert d.verdict is Verdict.REJECT_ALL

    def test_singular_innovation_rejects(self):
        h = np.zeros((2, 21))
        h[0, 0] = h[1, 0] = 1.0
        d = chi2_full(np.ones(2), h, np.eye(21) * 1e-6, np.zeros((2, 2)), 0.05)
        assert d.verdict is Verdict.REJECT_ALL

    def test_indefinite_innovation_rejects(self):
        # S = diag(-1.99, 1.01, 1.01) has no small singular value, so a test
        # on singular values alone would pass it and give a negative statistic
        d = chi2_full(np.array([1.0, 0, 0]), np.eye(3), np.diag([-2.0, 1, 1]),
                      0.01 * np.eye(3), 0.05)
        assert d.verdict is Verdict.REJECT_ALL
        assert d.statistic == float("inf")

    def test_monte_carlo_calibration(self):
        rng = np.random.default_rng(0)
        n = 100_000
        alpha = 0.05
        # fixed innovation covariance; vectorized d^2 for speed
        a = rng.normal(size=(6, 6))
        s_cov = a @ a.T + np.eye(6)
        z = rng.multivariate_normal(np.zeros(6), s_cov, size=n)
        d2 = np.einsum("ni,ni->n", z @ np.linalg.inv(s_cov), z)
        rate = np.mean(d2 <= chi2_quantile(6, 1 - alpha))
        assert abs(rate - (1 - alpha)) < 0.01
        # and the GatingDecision path agrees on a subsample
        h = np.zeros((6, 21))
        h[:, :6] = np.eye(6)
        p = np.eye(21) * 0.5
        noise = s_cov - h @ p @ h.T
        for zi, d2i in zip(z[:200], d2[:200]):
            dec = chi2_full(zi, h, p, noise, alpha)
            assert_allclose(dec.statistic, d2i, atol=1e-9)
            assert dec.verdict is (Verdict.ACCEPT_ALL
                                   if d2i <= chi2_quantile(6, 0.95)
                                   else Verdict.REJECT_ALL)


class TestChi2Partial:
    def setup_method(self):
        self.h_p = np.zeros((3, 21))
        self.h_p[:, 0:3] = np.eye(3)
        self.h_r = np.zeros((3, 21))
        self.h_r[:, 6:9] = np.eye(3)
        self.cov = np.eye(21) * 0.01

    def test_both_small_accepts(self):
        d = chi2_partial(np.zeros(3), np.zeros(3), self.h_p, self.h_r,
                         self.cov, np.eye(3) * 0.1, np.eye(3) * 0.1, 0.05)
        assert d.verdict is Verdict.ACCEPT_ALL

    def test_inflated_rotation_rejects_rotation_only(self):
        d = chi2_partial(np.zeros(3), np.ones(3) * 5.0, self.h_p, self.h_r,
                         self.cov, np.eye(3) * 0.1, np.eye(3) * 0.1, 0.05)
        assert d.verdict is Verdict.REJECT_ROTATION

    def test_inflated_position_rejects_position_only(self):
        d = chi2_partial(np.ones(3) * 5.0, np.zeros(3), self.h_p, self.h_r,
                         self.cov, np.eye(3) * 0.1, np.eye(3) * 0.1, 0.05)
        assert d.verdict is Verdict.REJECT_POSITION

    def test_indefinite_block_rejects_that_block(self):
        cov = np.eye(21) * 0.01
        cov[0, 0] = -2.0
        d = chi2_partial(np.array([1.0, 0, 0]), np.zeros(3), self.h_p,
                         self.h_r, cov, np.eye(3) * 0.01, np.eye(3) * 0.01,
                         0.05)
        assert d.verdict is Verdict.REJECT_POSITION
        assert d.statistic == float("inf")

    def test_marginal_statistics_match_oracle(self):
        rng = np.random.default_rng(1)
        z_p = rng.normal(size=3)
        z_r = rng.normal(size=3)
        noise = np.eye(3) * 0.1
        d = chi2_partial(z_p, z_r, self.h_p, self.h_r, self.cov, noise, noise,
                         0.05)
        s_p = self.h_p @ self.cov @ self.h_p.T + noise
        s_r = self.h_r @ self.cov @ self.h_r.T + noise
        d2_p = z_p @ np.linalg.solve(s_p, z_p)
        d2_r = z_r @ np.linalg.solve(s_r, z_r)
        assert_allclose(d.statistic, max(d2_p, d2_r), atol=1e-12)

    def test_partial_calibration_3dof(self):
        rng = np.random.default_rng(2)
        n = 100_000
        s_cov = np.diag([0.3, 0.5, 0.7])
        z = rng.multivariate_normal(np.zeros(3), s_cov, size=n)
        d2 = np.einsum("ni,ni->n", z @ np.linalg.inv(s_cov), z)
        rate = np.mean(d2 <= chi2_quantile(3, 0.95))
        assert abs(rate - 0.95) < 0.01


class TestAor:
    def test_small_sigmas_accept(self):
        d = aor(meas([0.01] * 3, [0.02] * 3))
        assert d.verdict is Verdict.ACCEPT_ALL

    def test_position_sigma_above_threshold_rejects_all(self):
        d = aor(meas([0.2, 0.01, 0.01], [0.02] * 3))
        assert d.verdict is Verdict.REJECT_ALL

    def test_boundary_is_accepted(self):
        d = aor(meas([AOR_TAU_P] * 3, [AOR_TAU_THETA] * 3))
        assert d.verdict is Verdict.ACCEPT_ALL

    def test_never_partial(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = aor(meas(rng.uniform(0.01, 0.5, 3), rng.uniform(0.01, 0.8, 3)))
            assert d.verdict in (Verdict.ACCEPT_ALL, Verdict.REJECT_ALL)


class TestAorp:
    def test_rotation_block_rejected(self):
        d = aorp(meas([0.01] * 3, [0.5] * 3))
        assert d.verdict is Verdict.REJECT_ROTATION

    def test_both_blocks_rejected(self):
        d = aorp(meas([0.5] * 3, [0.5] * 3))
        assert d.verdict is Verdict.REJECT_ALL

    def test_monotone_relation_to_aor_over_threshold_grid(self):
        # with equal thresholds, a per-block verdict (aorp) never keeps
        # less than full rejection (aor): aor rejects everything iff either
        # block trips; aorp then rejects exactly the tripped blocks
        rng = np.random.default_rng(4)
        for tau_p in (0.05, 0.1, 0.2):
            for tau_t in (0.1, 0.2, 0.4):
                for _ in range(50):
                    m = meas(rng.uniform(0.01, 0.4, 3),
                             rng.uniform(0.01, 0.6, 3))
                    da = _threshold_test(m, tau_p, tau_t, False)
                    dp = _threshold_test(m, tau_p, tau_t, True)
                    if da.verdict is Verdict.ACCEPT_ALL:
                        assert dp.verdict is Verdict.ACCEPT_ALL
                    else:
                        assert dp.verdict is not Verdict.ACCEPT_ALL
                    # partial never discards more rows than full rejection
                    rows = {Verdict.ACCEPT_ALL: 6, Verdict.REJECT_POSITION: 3,
                            Verdict.REJECT_ROTATION: 3, Verdict.REJECT_ALL: 0}
                    assert rows[dp.verdict] >= rows[da.verdict]

    def test_determinism(self):
        m = meas([0.09, 0.11, 0.05], [0.1, 0.2, 0.17])
        d1, d2 = aorp(m), aorp(m)
        assert d1 == d2


def test_config_validation():
    with pytest.raises(ValueError):
        GatingConfig(method="bogus")
    with pytest.raises(ValueError):
        GatingConfig(chi2_alpha=1.5)
    with pytest.raises(ValueError, match="chi2_alpha"):
        GatingConfig(chi2_alpha=np.nan)
    # 1 - alpha rounds to 1.0, where the quantile does not exist
    with pytest.raises(ValueError, match="chi2_alpha"):
        GatingConfig(chi2_alpha=1e-17)
    GatingConfig(chi2_alpha=2.0**-53)
