"""Evaluation against ground truth: RMSE, maximum position error, and the
normalized average estimation error squared (ANEES, ~1 for a consistent
filter)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geom3 import log_so3_batch, rot_of_batch

log = logging.getLogger(__name__)


@dataclass
class RunRecord:
    """Per-camera-tick ground truth, estimate, and marginal covariances of
    the robot position and attitude errors."""

    t: np.ndarray
    p_true: np.ndarray
    q_true: np.ndarray
    p_est: np.ndarray
    q_est: np.ndarray
    cov_pos: np.ndarray   # (K, 3, 3)
    cov_att: np.ndarray   # (K, 3, 3)
    diverged: bool = False
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.t) == 0:
            raise ValueError("run record must contain at least one tick")

    @property
    def n_ticks(self) -> int:
        return len(self.t)

    def position_errors(self) -> np.ndarray:
        return self.p_est - self.p_true

    def attitude_errors(self) -> np.ndarray:
        """Right-perturbation attitude error log(R_est^T R_true), the same
        convention as the filter's error state (rad)."""
        return log_so3_batch(np.swapaxes(rot_of_batch(self.q_est), 1, 2)
                             @ rot_of_batch(self.q_true))


def rmse_position(run: RunRecord) -> float:
    """Root mean square position error in meters."""
    err = run.position_errors()
    # a diverged estimate may square to inf, as run.diverged reports
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def rmse_orientation(run: RunRecord) -> float:
    """Root mean square geodesic attitude error in degrees."""
    ang = np.linalg.norm(run.attitude_errors(), axis=1)
    return float(np.degrees(np.sqrt(np.mean(ang * ang))))


def max_position_error(run: RunRecord) -> float:
    err = run.position_errors()
    with np.errstate(over="ignore"):
        return float(np.max(np.linalg.norm(err, axis=1)))


def anees(run: RunRecord, block: str = "position") -> float:
    """Mean over ticks of e^T P^-1 e / 3 for the chosen 3-dim block.

    Ticks with a (near-)singular covariance block are skipped; the skip
    count is reported through the module logger. A block that is not
    finite makes the result NaN.
    """
    if block == "position":
        errs, covs = run.position_errors(), run.cov_pos
    elif block == "orientation":
        errs, covs = run.attitude_errors(), run.cov_att
    else:
        raise ValueError(f"unknown block {block!r}")
    if not np.isfinite(covs).all():  # np.linalg.cond raises on these
        return float("nan")
    ok = ~(np.linalg.cond(covs) > 1e12)
    skipped = len(errs) - int(np.count_nonzero(ok))
    if skipped:
        log.warning("anees(%s): skipped %d/%d ticks with singular covariance",
                    block, skipped, len(errs))
    if skipped == len(errs):
        return float("nan")
    errs = errs[ok, None, :]
    with np.errstate(over="ignore"):
        nees = (errs @ np.linalg.solve(covs[ok], np.swapaxes(errs, 1, 2)))
    return float(np.mean(nees[:, 0, 0] / errs.shape[-1]))
