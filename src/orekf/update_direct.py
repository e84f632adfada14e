"""Residuals, Jacobians and EKF update for direct camera-to-object pose
measurements.

The measurement is used exactly as observed (object pose in the camera
frame), which decouples the position and rotation components: the position
residual never touches the measured rotation, so either block can be
rejected on its own. Rotation error states are right perturbations and the
rotation residual is the small-angle vector 2*qv/qw of the predicted-to-
measured quaternion difference.

A filter is described by one MeasurementModel value (DIRECT here,
update_inverse.INVERSE for the baseline); the stacking, Jacobian and
row-selection functions, the innovation covariance and the Joseph-form
update defined here serve both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import state as st
from .geom3 import quat_canonical_components, quat_conj, \
    quat_conj_components, quat_mul, quat_mul_components, rot_of, skew
from .state import FullState, inject_error, symmetrize

log = logging.getLogger(__name__)

# rotation residuals closer to pi than this are numerically meaningless
DEGENERATE_QW = 1e-6

MAX_CONDITION = 1e12

_I3 = np.eye(3)


class DegenerateRotationError(ValueError):
    """Residual rotation is within ~1e-6 of pi; treat as a gating rejection."""


@dataclass
class PoseMeasurement:
    """One observation: relative object pose with per-axis reported variances.

    var_p / var_theta are the diagonal entries of the position and rotation
    measurement covariances (m^2, rad^2); the rotation block lives in the
    tangent space of the measured rotation. Its time is its camera tick's.
    """

    object_class: str
    p_co: np.ndarray
    q_co: np.ndarray
    var_p: np.ndarray
    var_theta: np.ndarray

    def __post_init__(self):
        self.p_co = np.asarray(self.p_co, dtype=float)
        q_co = np.asarray(self.q_co, dtype=float).tolist()
        x, y, z, w = q_co
        if not 0.0 < x * x + y * y + z * z + w * w < math.inf:
            raise ValueError("q_co needs a finite, nonzero norm")
        self.q_co = np.array(quat_canonical_components(q_co))
        self.var_p = np.asarray(self.var_p, dtype=float)
        self.var_theta = np.asarray(self.var_theta, dtype=float)
        if not all(v > 0.0 for v in self.var_p.tolist()
                   + self.var_theta.tolist()):    # NaN fails too
            raise ValueError("measurement variances must be positive")


@dataclass
class StackedUpdate:
    """Stacked measurement rows: residual, Jacobian and noise covariance.

    stack_frame lays out every matched measurement of a frame as six rows,
    [position, rotation] per match in match order; build_stacked and the
    run loop keep the rows that gating let through.
    """

    residual: np.ndarray   # (m,)
    jacobian: np.ndarray   # (m, error_dim)
    noise_cov: np.ndarray  # (m, m)

    def rows(self, keep) -> "StackedUpdate":
        """The sub-problem of the rows listed in keep."""
        return StackedUpdate(self.residual[keep], self.jacobian[keep],
                             self.noise_cov[np.ix_(keep, keep)])


def predicted_relative_position(state, obj) -> np.ndarray:
    """Object position in the camera frame from the current estimate."""
    rot_ic = rot_of(state.q_ic)
    rot_wi = rot_of(state.q_wi)
    return rot_ic.T @ (-state.p_ic + rot_wi.T @ (obj.p_wo - state.p_wi))


def predicted_relative_quat(state, obj) -> np.ndarray:
    """Object rotation in the camera frame from the current estimate."""
    return quat_mul(quat_mul(quat_conj(state.q_ic), quat_conj(state.q_wi)),
                    obj.q_wo)


def residual_position(state, obj, meas: PoseMeasurement) -> np.ndarray:
    """Position residual; independent of the measured rotation by design."""
    return meas.p_co - predicted_relative_position(state, obj)


def small_angle_residual(q_pred, q_meas) -> np.ndarray:
    """2*qv/qw of the right quaternion difference pred^-1 (x) meas, from
    quaternions given as four floats each (or arrays)."""
    x, y, z, w = quat_mul_components(quat_conj_components(q_pred), q_meas)
    if w <= DEGENERATE_QW:
        raise DegenerateRotationError(
            "rotation residual too close to pi for the small-angle form")
    return np.array((2.0 * x / w, 2.0 * y / w, 2.0 * z / w))


def residual_rotation(state, obj, meas: PoseMeasurement) -> np.ndarray:
    return small_angle_residual(predicted_relative_quat(state, obj),
                                meas.q_co)


def _frame_terms(state):
    """Products of the frame's rotations that the rows of every object
    share, evaluated once per frame."""
    p_wi, q_wi, p_ic, q_ic = state.p_wi, state.q_wi, state.p_ic, state.q_ic
    rot_wi, rot_ic = rot_of(q_wi), rot_of(q_ic)
    ric_t, rwi_t = rot_ic.T, rot_wi.T
    a = ric_t @ rwi_t
    return (rot_wi, rot_ic, ric_t, rwi_t, a, -ric_t @ rwi_t,
            skew(rwi_t @ p_wi), -skew(ric_t @ p_ic), skew(a @ p_wi),
            quat_mul_components(quat_conj_components(q_ic.tolist()),
                                quat_conj_components(q_wi.tolist())))


def _object_rows(h, terms, state, obj, i):
    """Write the Jacobian rows [position; rotation] of object i into h
    (6 x error_dim) and return its predicted relative pose (p_co, q_co)."""
    rot_wi, rot_ic, ric_t, rwi_t, a, neg_a, s_wi, neg_s_ic, s_a_wi, q_cw = \
        terms
    h[:3, st.POS] = neg_a
    h[:3, st.ATT] = ric_t @ (skew(rwi_t @ obj.p_wo) - s_wi)
    h[:3, st.P_IC] = -ric_t
    h[:3, st.ATT_IC] = neg_s_ic + skew(a @ obj.p_wo) - s_a_wi
    h[:3, st.obj_pos_slice(i)] = a
    h_att = -rot_of(obj.q_wo).T @ rot_wi
    h[3:, st.ATT] = h_att
    h[3:, st.ATT_IC] = h_att @ rot_ic
    h[3:, st.obj_att_slice(i)] = _I3
    return (ric_t @ (-state.p_ic + rwi_t @ (obj.p_wo - state.p_wi)),
            quat_mul_components(q_cw, obj.q_wo.tolist()))


def _observe(meas: PoseMeasurement):
    cov = np.zeros((2, 9))
    cov[0, ::4], cov[1, ::4] = meas.var_p, meas.var_theta  # two 3x3 diagonals
    cov_p, cov_theta = cov.reshape(2, 3, 3)
    return meas.p_co, meas.q_co, cov_p, cov_theta


class MeasurementModel(NamedTuple):
    """How one filter turns a matched measurement into six stacked rows.

    observe(meas) -> (p, q, cov_p, cov_theta): the measurement as the
    filter fuses it, with its 3x3 position and rotation noise blocks.
    frame_terms(state): the rotation products every object shares.
    object_rows(h, terms, state, obj, i) -> (p_pred, q_pred): writes
    the Jacobian rows [position; rotation] of object i into h (6 x
    error_dim) and returns the prediction of observe's (p, q), with q_pred
    as four Python floats.
    partial_ok: whether one block of a measurement may be rejected alone.
    """

    observe: Callable
    frame_terms: Callable
    object_rows: Callable
    partial_ok: bool


# The measurement as observed: decoupled blocks, per-axis variances as-is.
DIRECT = MeasurementModel(_observe, _frame_terms, _object_rows,
                          partial_ok=True)


def jacobians(state: FullState, obj_index: int, model=DIRECT):
    """Analytic measurement Jacobians (3 x error_dim each) for one object.

    Returns the unmasked blocks; the anchor is masked out of the correction
    at update time, not here, so these always match finite differences of
    the residuals. Columns of other objects are zero because relative pose
    measurements of different objects are independent.
    """
    h = np.zeros((6, state.error_dim))
    model.object_rows(h, model.frame_terms(state), state,
                      state.objects[obj_index], obj_index)
    return h[:3], h[3:]


def stack_frame(state: FullState, matches, model=DIRECT):
    """Residuals, Jacobians and noise of every matched measurement of one
    frame, six rows [position, rotation] per match in match order.

    matches is a list of (obj_index, obj, PoseMeasurement): the index and
    the ObjectState of a matched object, as state.objects lists it, and the
    measurement as observed (objects are only appended, so a list taken
    before an initialization still serves); model says how each enters the
    filter. Returns (StackedUpdate, degenerate):
    degenerate[j] is True when the rotation residual of match j is too
    close to pi to use; its rows are zero in the residual and must not be
    kept. The noise is block-diagonal in the 3x3 blocks of model.observe.
    """
    terms = model.frame_terms(state)
    n = len(matches)
    h = np.zeros((n, 6, state.error_dim))
    z = np.empty((n, 6))
    blocks = np.empty((n, 2, 3, 3))
    degenerate = []
    for j, (i, obj, meas) in enumerate(matches):
        p, q, blocks[j, 0], blocks[j, 1] = model.observe(meas)
        p_pred, q_pred = model.object_rows(h[j], terms, state, obj, i)
        z[j, :3] = p - p_pred
        try:
            z[j, 3:] = small_angle_residual(q_pred, q.tolist())
            degenerate.append(False)
        except DegenerateRotationError:
            z[j, 3:] = 0.0
            degenerate.append(True)
    noise = np.zeros((2 * n, 3, 2 * n, 3))
    diag = np.arange(2 * n)
    noise[diag, :, diag] = blocks.reshape(2 * n, 3, 3)
    return (StackedUpdate(z.reshape(-1), h.reshape(-1, state.error_dim),
                          noise.reshape(6 * n, 6 * n)), degenerate)


def kept_rows(decisions) -> list:
    """Indices of the rows of a frame stack that the decisions keep."""
    keep = []
    for j, decision in enumerate(decisions):
        if decision.keeps_position():
            keep += range(6 * j, 6 * j + 3)
        if decision.keeps_rotation():
            keep += range(6 * j + 3, 6 * j + 6)
    return keep


def build_stacked(state: FullState, matches, decisions, model=DIRECT):
    """Stack residuals / Jacobians / noise for the surviving blocks.

    matches is a list of (obj_index, PoseMeasurement); decisions the matching
    list of GatingDecision. Partial verdicts raise unless model.partial_ok,
    and so does a decision that keeps a degenerate rotation residual.
    Returns None when every row is rejected.
    """
    if not matches:
        raise ValueError("build_stacked requires at least one match")
    if not model.partial_ok and any(
            d.keeps_position() != d.keeps_rotation() for d in decisions):
        raise ValueError(
            "partial rejection is not supported by this measurement model")
    objects = state.objects
    stacked, degenerate = stack_frame(
        state, [(i, objects[i], meas) for i, meas in matches], model)
    for bad, decision in zip(degenerate, decisions):
        if bad and decision.keeps_rotation():
            raise DegenerateRotationError(
                "a degenerate rotation residual cannot be kept")
    keep = kept_rows(decisions)
    if not keep:
        return None
    return stacked.rows(keep)


def innovation(cov: np.ndarray, stacked: StackedUpdate):
    """(S, H P): the innovation covariance H P H^T + R, symmetrized, and the
    cross covariance H P (the transpose of P H^T) that gating and the
    update share. Takes one problem or a stack of them (see stack_updates)."""
    hp = stacked.jacobian @ cov
    return (symmetrize(hp @ stacked.jacobian.swapaxes(-1, -2)
                       + stacked.noise_cov), hp)


def stack_updates(updates) -> StackedUpdate:
    """The problems of R runs with the same row count and error dimension
    as one StackedUpdate of (R, ...) arrays."""
    return StackedUpdate(np.stack([u.residual for u in updates]),
                         np.stack([u.jacobian for u in updates]),
                         np.stack([u.noise_cov for u in updates]))


def well_conditioned(eig_min, eig_max):
    """Positive definite with a 2-norm condition number of at most
    MAX_CONDITION, from the extreme eigenvalues of a symmetric matrix."""
    return (eig_min > 0.0) & (eig_max <= MAX_CONDITION * eig_min)


def _gain_and_cov(cov, stacked: StackedUpdate, s, hp, anchored: bool):
    """Kalman gain (anchor rows zeroed) and Joseph-form covariance of one
    problem or of a stack of them."""
    gain = np.linalg.solve(s, hp).swapaxes(-1, -2)
    if anchored:
        gain[..., st.ANCHOR, :] = 0.0
    i_kh = np.eye(cov.shape[-1]) - gain @ stacked.jacobian
    new_cov = (i_kh @ cov @ i_kh.swapaxes(-1, -2)
               + gain @ stacked.noise_cov @ gain.swapaxes(-1, -2))
    return gain, symmetrize(new_cov)


def _skip_warning(eig_min, eig_max):
    log.warning("innovation covariance condition number %.2e > %.0e; "
                "update skipped",
                float("inf") if eig_min <= 0 else eig_max / eig_min,
                MAX_CONDITION)


def joseph_update(state, cov: np.ndarray, stacked: StackedUpdate,
                  s: np.ndarray, hp: np.ndarray):
    """EKF update from precomputed S and H P (see innovation); returns
    (state, cov, applied). A skipped update returns the inputs themselves.

    Several runs update in lockstep when cov is a stack (R, d, d): state is
    then a list of R states, stacked, s and hp hold the R problems (see
    stack_updates), and the result is (states, covs, applied) as lists,
    bit for bit what R single calls return.
    """
    eig = np.linalg.eigvalsh(s)
    if cov.ndim == 2:
        if not well_conditioned(eig[0], eig[-1]):
            _skip_warning(eig[0], eig[-1])
            return state, cov, False
        gain, new_cov = _gain_and_cov(cov, stacked, s, hp,
                                      bool(state.classes))
        return inject_error(state, gain @ stacked.residual), new_cov, True

    states, covs = list(state), list(cov)
    ok = well_conditioned(eig[:, 0], eig[:, -1])
    for r in np.flatnonzero(~ok):
        _skip_warning(eig[r, 0], eig[r, -1])
    run = np.flatnonzero(ok)
    if run.size:
        if run.size < ok.size:
            cov, s, hp = cov[run], s[run], hp[run]
            stacked = StackedUpdate(stacked.residual[run],
                                    stacked.jacobian[run],
                                    stacked.noise_cov[run])
        gain, new_cov = _gain_and_cov(cov, stacked, s, hp,
                                      bool(states[run[0]].classes))
        dx = (gain @ stacked.residual[..., None])[..., 0]
        for i, r in enumerate(run):
            states[r] = inject_error(states[r], dx[i])
            covs[r] = new_cov[i]
    return states, covs, ok.tolist()


def ekf_update(state: FullState, cov: np.ndarray, stacked: StackedUpdate):
    """Error-state EKF update with Joseph-form covariance.

    The gain rows of the anchor (object 0) are zeroed so its pose (and
    covariance block) never change; its columns stay in the Jacobian so the
    innovation covariance keeps the anchor's uncertainty, which keeps the
    filter consistent in the world frame. An ill-conditioned innovation
    covariance skips the update with a diagnostic.
    """
    if stacked.residual.size < 1:
        raise ValueError("empty stacked update")
    new_state, new_cov, _ = joseph_update(state, cov, stacked,
                                          *innovation(cov, stacked))
    return new_state, new_cov
