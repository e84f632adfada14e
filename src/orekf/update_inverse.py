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
from functools import partial

import numpy as np

from . import state as st
from . import update_direct as ud
from .geom3 import quat_conj, quat_conj_components, quat_mul, \
    quat_mul_components, rot_of, skew
from .update_direct import PoseMeasurement, small_angle_residual


@dataclass
class InvertedMeasurement:
    """Camera pose in the object frame with full (rotated) covariance blocks."""

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
        p_oc=-(rot_oc @ meas.p_co),
        q_oc=quat_conj(meas.q_co),
        cov_p=rot_oc @ np.diag(meas.var_p) @ rot_oc.T,
        cov_theta=rot_oc @ np.diag(meas.var_theta) @ rot_oc.T,
    )


def predicted_camera_in_object(state, obj):
    """Predicted (p_oc, q_oc) from the current estimate."""
    rot_wo = rot_of(obj.q_wo)
    p_wc = state.p_wi + rot_of(state.q_wi) @ state.p_ic
    p_oc = rot_wo.T @ (p_wc - obj.p_wo)
    q_oc = quat_mul(quat_mul(quat_conj(obj.q_wo), state.q_wi), state.q_ic)
    return p_oc, q_oc


def residual_position(state, obj, inv: InvertedMeasurement) -> np.ndarray:
    p_oc, _ = predicted_camera_in_object(state, obj)
    return inv.p_oc - p_oc


def residual_rotation(state, obj, inv: InvertedMeasurement) -> np.ndarray:
    _, q_oc = predicted_camera_in_object(state, obj)
    return small_angle_residual(q_oc, inv.q_oc)


def _observe(meas: PoseMeasurement):
    inv = invert_measurement(meas)
    return inv.p_oc, inv.q_oc, inv.cov_p, inv.cov_theta


def _frame_terms(state):
    """Products of the frame's rotations that the rows of every object
    share, evaluated once per frame."""
    rot_wi, rot_ic = rot_of(state.q_wi), rot_of(state.q_ic)
    return (rot_wi, rot_ic.T, state.p_wi + rot_wi @ state.p_ic,
            skew(state.p_ic), -rot_ic.T @ rot_wi.T, state.q_wi.tolist(),
            state.q_ic.tolist())


def _object_rows(h, terms, state, obj, i):
    """Write the Jacobian rows [position; rotation] of object i into h
    (6 x error_dim) and return the predicted camera pose in the object
    frame (p_oc, q_oc)."""
    rot_wi, ric_t, p_wc, skew_p_ic, c, q_wi, q_ic = terms
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
    return p_oc, quat_mul_components(quat_mul_components(
        quat_conj_components(obj.q_wo.tolist()), q_wi), q_ic)


# The measurement inverted into the object frame: the inversion couples the
# blocks, so partial rejection is not available, and the noise blocks are
# the rotated covariances of invert_measurement.
INVERSE = ud.MeasurementModel(_observe, _frame_terms, _object_rows,
                              partial_ok=False)

# The shared Jacobian and stacking functions, bound to this model.
jacobians = partial(ud.jacobians, model=INVERSE)
build_stacked = partial(ud.build_stacked, model=INVERSE)


__all__ = [
    "INVERSE",
    "InvertedMeasurement",
    "invert_measurement",
    "residual_position",
    "residual_rotation",
    "jacobians",
    "build_stacked",
]
