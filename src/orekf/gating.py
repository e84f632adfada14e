"""Outlier rejection: chi-square tests and reported-uncertainty thresholds,
each in a full-measurement and a partial (position / rotation block) variant.

All functions are pure; a chi-square quantile is computed once per
(dof, prob) by bisection on the distribution's tail probabilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .state import symmetrize
from .update_direct import PoseMeasurement, well_conditioned

METHODS = ("none", "chi2", "chi2p", "aor", "aorp")
PARTIAL_METHODS = ("chi2p", "aorp")

# Thresholds on the largest reported standard deviation: position [m] and
# rotation [rad], for full (aor) and per-block (aorp) rejection.
AOR_TAU_P, AOR_TAU_THETA = 0.15, 0.35
AORP_TAU_P, AORP_TAU_THETA = 0.10, 0.175


class Verdict(enum.Enum):
    ACCEPT_ALL = "accept_all"
    REJECT_ALL = "reject_all"
    REJECT_POSITION = "reject_position"
    REJECT_ROTATION = "reject_rotation"


@dataclass(frozen=True)
class GatingDecision:
    verdict: Verdict
    statistic: float

    def keeps_position(self) -> bool:
        return self.verdict in (Verdict.ACCEPT_ALL, Verdict.REJECT_ROTATION)

    def keeps_rotation(self) -> bool:
        return self.verdict in (Verdict.ACCEPT_ALL, Verdict.REJECT_POSITION)


@dataclass
class GatingConfig:
    method: str = "none"
    chi2_alpha: float = 0.05

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown gating method {self.method!r}; "
                             f"expected one of {METHODS}")
        # the chi-square tests take the quantile at 1 - chi2_alpha
        if not 0.0 < 1.0 - self.chi2_alpha < 1.0:
            raise ValueError("chi2_alpha must be in (0, 1), with 1 - "
                             "chi2_alpha < 1")


def _chi2_sf(dof: int, x: float) -> float:
    """Survival function of the chi-square distribution with an integer dof,
    in closed form: e^(-y) sum_{k < dof/2} y^k / k! (y = x/2) for even dof,
    erfc(sqrt(y)) plus the series in y^(k - 1/2) / Gamma(k + 1/2) for odd."""
    y = 0.5 * x
    if dof % 2:
        total, a = math.erfc(math.sqrt(y)), 1.5
        term = math.exp(-y) * math.sqrt(y) / math.gamma(a)
    else:
        total, a, term = 0.0, 1.0, math.exp(-y)
    for k in range(dof // 2):
        total += term
        term *= y / (a + k)
    return total


def _chi2_cdf(dof: int, x: float) -> float:
    """Distribution function of the chi-square distribution as the power
    series of the regularized lower incomplete gamma function, accurate
    where it is small (where 1 - sf would cancel)."""
    a, y = 0.5 * dof, 0.5 * x
    term = math.exp(-y) * y ** a / math.gamma(a + 1.0)
    total, k = 0.0, 1
    while total + term != total:
        total += term
        term *= y / (a + k)
        k += 1
    return total


@lru_cache(maxsize=64)
def chi2_quantile(dof: int, prob: float) -> float:
    """Quantile of the chi-square distribution with an integer dof >= 1:
    bisection to the last bit on the smaller of its two tails."""
    if not (dof >= 1 and dof == int(dof) and 0.0 < prob < 1.0):
        raise ValueError("chi2_quantile needs an integer dof >= 1 and a "
                         "probability in (0, 1)")
    if prob < 0.5:
        def below(x):
            return _chi2_cdf(dof, x) < prob
    else:
        def below(x):
            return _chi2_sf(dof, x) > 1.0 - prob
    lo, hi = 0.0, 1.0
    while below(hi):
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _compose(reject_p: bool, reject_r: bool) -> Verdict:
    if reject_p and reject_r:
        return Verdict.REJECT_ALL
    if reject_p:
        return Verdict.REJECT_POSITION
    if reject_r:
        return Verdict.REJECT_ROTATION
    return Verdict.ACCEPT_ALL


def _mahalanobis_sq(residuals: np.ndarray, innovation_covs: np.ndarray):
    """Squared Mahalanobis distances of a batch of residual blocks (k, d)
    under their symmetric innovation covariances (k, d, d).

    One batched eigendecomposition gives both the distance and the
    conditioning test: a block that is not positive definite, or whose
    2-norm condition number exceeds MAX_CONDITION, gets distance inf.
    """
    w, v = np.linalg.eigh(innovation_covs)
    ok = well_conditioned(w[:, 0], w[:, -1])
    y = np.einsum("kji,kj->ki", v, residuals)
    d2 = np.full(len(w), np.inf)
    d2[ok] = np.sum(y[ok] ** 2 / w[ok], axis=1)
    return d2


def _chi2_decisions(d2: np.ndarray, dof: int, alpha: float):
    """Decisions from block distances d2 of shape (matches, blocks): one
    block per match for chi2, (position, rotation) for chi2p. With one
    block, r[0] and r[-1] are the same test and the verdict is all or
    nothing."""
    reject = (d2 > chi2_quantile(dof, 1.0 - alpha)).tolist()
    return [GatingDecision(_compose(r[0], r[-1]), x)
            for r, x in zip(reject, d2.max(axis=1).tolist())]


def _block_distances(residuals, jacs, cov, noises):
    s = np.array([symmetrize(jac @ cov @ jac.T + noise)
                  for jac, noise in zip(jacs, noises)])
    return _mahalanobis_sq(np.array(residuals), s)


def chi2_full(residual, jac, cov, noise_cov, alpha: float) -> GatingDecision:
    """Full-measurement chi-square test on the innovation.

    An innovation covariance that is not positive definite or is
    (near-)singular rejects the measurement.
    """
    d2 = _block_distances([residual], [jac], cov, [noise_cov])
    return _chi2_decisions(d2.reshape(1, 1), residual.size, alpha)[0]


def chi2_partial(residual_p, residual_r, jac_p, jac_r, cov, noise_p, noise_r,
                 alpha: float) -> GatingDecision:
    """Two independent 3-DoF chi-square tests on the marginal innovations."""
    d2 = _block_distances([residual_p, residual_r], [jac_p, jac_r], cov,
                          [noise_p, noise_r])
    return _chi2_decisions(d2.reshape(1, 2), residual_p.size, alpha)[0]


def _threshold_test(meas: PoseMeasurement, tau_p: float, tau_theta: float,
                    per_block: bool) -> GatingDecision:
    """Reject a block whose largest reported standard deviation exceeds its
    threshold (strict inequality: the boundary is accepted); without
    per_block, reject the whole measurement instead."""
    # the square root is correctly rounded and monotone, so the root of the
    # largest variance is the largest root
    sig_p = math.sqrt(max(meas.var_p.tolist()))
    sig_r = math.sqrt(max(meas.var_theta.tolist()))
    reject_p, reject_r = sig_p > tau_p, sig_r > tau_theta
    if not per_block:
        reject_p = reject_r = reject_p or reject_r
    return GatingDecision(_compose(reject_p, reject_r),
                          max(sig_p / tau_p, sig_r / tau_theta))


def aor(meas: PoseMeasurement) -> GatingDecision:
    """Reject the whole measurement when any reported standard deviation
    exceeds its threshold."""
    return _threshold_test(meas, AOR_TAU_P, AOR_TAU_THETA, False)


def aorp(meas: PoseMeasurement) -> GatingDecision:
    """Per-block variant of aor: position and rotation rejected separately."""
    return _threshold_test(meas, AORP_TAU_P, AORP_TAU_THETA, True)


def _accept_all(cfg, s, residual, measurements, degenerate):
    return [GatingDecision(Verdict.ACCEPT_ALL, 0.0)] * len(measurements)


def _thresholds(test, cfg, s, residual, measurements, degenerate):
    return [test(m) for m in measurements]


def _chi2_blocks(block, cfg, s, residual, measurements, degenerate):
    k = s.shape[0] // block
    idx = np.arange(k)
    d2 = _mahalanobis_sq(residual.reshape(k, block),
                         s.reshape(k, block, k, block)[idx, :, idx])
    d2 = d2.reshape(len(measurements), 6 // block)
    # A degenerate rotation residual fails the joint test; with per-block
    # tests the position block stands alone and gate_frame rejects the
    # rotation block.
    if block == 6:
        d2[degenerate, 0] = np.inf
    else:
        d2[degenerate, 1] = 0.0
    return _chi2_decisions(d2, block, cfg.chi2_alpha)


# How each method gates a frame: chi-square tests on the diagonal blocks of
# the frame's innovation covariance (6x6 per match, or 3x3 per position and
# rotation block), or thresholds on the reported variances alone.
FRAME_TESTS = {
    "none": _accept_all,
    "aor": partial(_thresholds, aor),
    "aorp": partial(_thresholds, aorp),
    "chi2": partial(_chi2_blocks, 6),
    "chi2p": partial(_chi2_blocks, 3),
}


def gate_frame(cfg: GatingConfig, s: np.ndarray, residual: np.ndarray,
               measurements, degenerate, partial_ok: bool):
    """Gating decisions for every match of one frame.

    s and residual are the frame's innovation covariance and stacked
    residual, six rows [position, rotation] per match (see stack_frame);
    measurements are the PoseMeasurements as observed, in match order. A
    degenerate rotation residual (near pi) is never kept: the measurement
    keeps its position block when the test kept it and partial_ok allows
    partial rejection, and is rejected whole otherwise.
    """
    decisions = FRAME_TESTS[cfg.method](cfg, s, residual, measurements,
                                        degenerate)
    for j, bad in enumerate(degenerate):
        decision = decisions[j]
        if bad and decision.keeps_rotation():
            verdict = (Verdict.REJECT_ROTATION
                       if decision.keeps_position() and partial_ok
                       else Verdict.REJECT_ALL)
            decisions[j] = GatingDecision(verdict, decision.statistic)
    return decisions
