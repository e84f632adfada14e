"""Baseline filter using the inverted measurement: the camera pose expressed
in the object frame.

Inverting the 6-DoF measurement makes the position part depend on the
measured rotation (p_oc = -R_co^T p_co), so rotation errors leak into the
position residual and the measurement covariance must be rotated by the
measured rotation. Partial rejection is deliberately unavailable here: the
blocks are coupled by the inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import state as st
from .gating import GatingDecision, Verdict
from .geom3 import quat_conj, quat_mul, rot_of, skew
from .state import FullState
from .update_direct import (
    PoseMeasurement,
    StackedUpdate,
    fill_rotation_residual,
    select_rows,
    small_angle_residual,
)


@dataclass
class InvertedMeasurement:
    """Camera pose in the object frame with full (rotated) covariance blocks."""

    t: float
    object_class: str
    p_oc: np.ndarray
    q_oc: np.ndarray
    cov_p: np.ndarray
    cov_theta: np.ndarray


def invert_measurement(meas: PoseMeasurement) -> InvertedMeasurement:
    """Invert the relative pose and rotate both covariance blocks into the
    object frame. No cross terms appear between the two blocks, but each
    3x3 block picks up off-diagonal correlations from the rotation."""
    rot_oc = rot_of(meas.q_co).T
    return InvertedMeasurement(
        t=meas.t,
        object_class=meas.object_class,
        p_oc=-(rot_oc @ meas.p_co),
        q_oc=quat_conj(meas.q_co),
        cov_p=rot_oc @ np.diag(meas.var_p) @ rot_oc.T,
        cov_theta=rot_oc @ np.diag(meas.var_theta) @ rot_oc.T,
    )


def predicted_camera_in_object(core, extr, obj):
    """Predicted (p_oc, q_oc) from the current estimate."""
    rot_wo = rot_of(obj.q_wo)
    p_wc = core.p_wi + rot_of(core.q_wi) @ extr.p_ic
    p_oc = rot_wo.T @ (p_wc - obj.p_wo)
    q_oc = quat_mul(quat_mul(quat_conj(obj.q_wo), core.q_wi), extr.q_ic)
    return p_oc, q_oc


def residual_position(core, extr, obj, inv: InvertedMeasurement) -> np.ndarray:
    p_oc, _ = predicted_camera_in_object(core, extr, obj)
    return inv.p_oc - p_oc


def residual_rotation(core, extr, obj, inv: InvertedMeasurement) -> np.ndarray:
    _, q_oc = predicted_camera_in_object(core, extr, obj)
    return small_angle_residual(q_oc, inv.q_oc)


def _frame_terms(core, extr):
    """Products of the frame's rotations that the rows of every object
    share, evaluated once per frame."""
    rot_wi, rot_ic = rot_of(core.q_wi), rot_of(extr.q_ic)
    return (rot_wi, rot_ic.T, core.p_wi + rot_wi @ extr.p_ic,
            skew(extr.p_ic), -rot_ic.T @ rot_wi.T)


def _object_rows(h, terms, obj, i) -> np.ndarray:
    """Write the Jacobian rows [position; rotation] of object i into h
    (6 x error_dim) and return the predicted camera position in the object
    frame."""
    rot_wi, ric_t, p_wc, skew_p_ic, c = terms
    rot_wo = rot_of(obj.q_wo)
    rwo_t = rot_wo.T
    p_oc = rwo_t @ (p_wc - obj.p_wo)
    h[:3, st.POS] = rwo_t
    h[:3, st.ATT] = -rwo_t @ rot_wi @ skew_p_ic
    h[:3, st.P_IC] = rwo_t @ rot_wi
    h[:3, st.obj_pos_slice(i)] = -rwo_t
    h[:3, st.obj_att_slice(i)] = skew(p_oc)
    h[3:, st.ATT] = ric_t
    h[3:, st.ATT_IC] = np.eye(3)
    h[3:, st.obj_att_slice(i)] = c @ rot_wo
    return p_oc


def jacobians(state: FullState, obj_index: int):
    """Analytic Jacobians of the inverted-measurement model, derived with the
    same right-perturbation rules as the direct filter (unmasked)."""
    h = np.zeros((6, state.error_dim))
    _object_rows(h, _frame_terms(state.core, state.extr),
                 state.objects[obj_index], obj_index)
    return h[:3], h[3:]


def stack_frame(state: FullState, matches):
    """Residuals, Jacobians and noise of every matched measurement of one
    frame, inverted, six rows [position, rotation] per match in match order.

    matches is a list of (obj_index, PoseMeasurement) as observed; each is
    inverted here. Returns (StackedUpdate, degenerate) as the direct
    filter's stack_frame does; the noise blocks are the rotated 3x3
    covariances of the inverted measurements.
    """
    core, extr = state.core, state.extr
    terms = _frame_terms(core, extr)
    n = len(matches)
    h = np.zeros((n, 6, state.error_dim))
    z = np.empty((n, 6))
    noise = np.zeros((2 * n, 3, 2 * n, 3))
    degenerate = []
    for j, (i, meas) in enumerate(matches):
        inv = invert_measurement(meas)
        obj = state.objects[i]
        z[j, :3] = inv.p_oc - _object_rows(h[j], terms, obj, i)
        q_oc = quat_mul(quat_mul(quat_conj(obj.q_wo), core.q_wi), extr.q_ic)
        degenerate.append(fill_rotation_residual(z[j, 3:], q_oc, inv.q_oc))
        noise[2 * j, :, 2 * j] = inv.cov_p
        noise[2 * j + 1, :, 2 * j + 1] = inv.cov_theta
    return (StackedUpdate(z.reshape(-1), h.reshape(-1, state.error_dim),
                          noise.reshape(6 * n, 6 * n)), degenerate)


def build_stacked(state: FullState, matches, decisions):
    """Stack the surviving measurements, inverted. matches is a list of
    (obj_index, PoseMeasurement) as observed. Only full-measurement verdicts
    are legal here; the inversion couples the blocks, so partial rejection is
    not supported."""
    if not matches:
        raise ValueError("build_stacked requires at least one match")
    if any(d.verdict in (Verdict.REJECT_POSITION, Verdict.REJECT_ROTATION)
           for d in decisions):
        raise ValueError(
            "partial rejection is not supported by the inverse filter")
    return select_rows(*stack_frame(state, matches), decisions)


__all__ = [
    "InvertedMeasurement",
    "invert_measurement",
    "residual_position",
    "residual_rotation",
    "jacobians",
    "stack_frame",
    "build_stacked",
    "GatingDecision",
]
