"""Nominal filter state, error-state covariance layout, and object registry.

Error-state layout (dimension 21 + 6N):

    [dp_wi, dv_wi, dtheta_wi, db_gyro, db_accel,
     dp_ic, dtheta_ic,
     dp_wo_0, dtheta_wo_0, ..., dp_wo_{N-1}, dtheta_wo_{N-1}]

Vector blocks are additive; rotation blocks are right perturbations injected
as q <- q (x) quat_of(exp_so3(dtheta)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom3 import quat_exp, quat_mul, rot_of, skew


def _perturb_quat(q: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    """Right-multiplicative attitude injection q (x) exp(dtheta); an exactly
    zero block leaves the quaternion bit-identical (the anchor relies on
    this)."""
    if dtheta[0] == 0.0 and dtheta[1] == 0.0 and dtheta[2] == 0.0:
        return q.copy()
    return quat_mul(q, quat_exp(dtheta))

CORE_DIM = 15
EXTR_DIM = 6
BASE_DIM = CORE_DIM + EXTR_DIM  # 21

# core block slices
POS = slice(0, 3)
VEL = slice(3, 6)
ATT = slice(6, 9)
BG = slice(9, 12)
BA = slice(12, 15)
P_IC = slice(15, 18)
ATT_IC = slice(18, 21)
# the anchor, object 0, whose pose is the gauge datum: [dp_wo_0, dtheta_wo_0]
ANCHOR = slice(BASE_DIM, BASE_DIM + 6)


def obj_pos_slice(i: int) -> slice:
    return slice(BASE_DIM + 6 * i, BASE_DIM + 6 * i + 3)


def obj_att_slice(i: int) -> slice:
    return slice(BASE_DIM + 6 * i + 3, BASE_DIM + 6 * i + 6)


@dataclass
class CoreState:
    """Propagated states: IMU position, velocity, attitude and biases."""

    p_wi: np.ndarray
    v_wi: np.ndarray
    q_wi: np.ndarray
    bias_gyro: np.ndarray
    bias_accel: np.ndarray

    def copy(self) -> "CoreState":
        return CoreState(self.p_wi.copy(), self.v_wi.copy(), self.q_wi.copy(),
                         self.bias_gyro.copy(), self.bias_accel.copy())


@dataclass
class Extrinsics:
    """Camera-in-IMU calibration; carried in the state but held fixed."""

    p_ic: np.ndarray
    q_ic: np.ndarray

    def copy(self) -> "Extrinsics":
        return Extrinsics(self.p_ic.copy(), self.q_ic.copy())


@dataclass
class ObjectState:
    """An object's class and world pose; its id is its list position."""

    obj_class: str
    p_wo: np.ndarray
    q_wo: np.ndarray

    def copy(self) -> "ObjectState":
        return ObjectState(self.obj_class, self.p_wo.copy(), self.q_wo.copy())


@dataclass
class FullState:
    """Core, extrinsics and the objects in the order they were added; the
    first object is the anchor."""

    core: CoreState
    extr: Extrinsics
    objects: list = field(default_factory=list)

    @property
    def error_dim(self) -> int:
        return BASE_DIM + 6 * len(self.objects)

    def copy(self) -> "FullState":
        return FullState(self.core.copy(), self.extr.copy(),
                         [o.copy() for o in self.objects])


def symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


def inject_error(state: FullState, dx: np.ndarray) -> FullState:
    """Apply an error-state vector to the nominal state (the boxplus)."""
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (state.error_dim,):
        raise ValueError(
            f"error vector has dimension {dx.shape}, expected ({state.error_dim},)")
    core = state.core
    new_core = CoreState(
        core.p_wi + dx[POS],
        core.v_wi + dx[VEL],
        _perturb_quat(core.q_wi, dx[ATT]),
        core.bias_gyro + dx[BG],
        core.bias_accel + dx[BA],
    )
    new_extr = Extrinsics(
        state.extr.p_ic + dx[P_IC],
        _perturb_quat(state.extr.q_ic, dx[ATT_IC]),
    )
    new_objects = [
        ObjectState(obj.obj_class, obj.p_wo + dx[obj_pos_slice(i)],
                    _perturb_quat(obj.q_wo, dx[obj_att_slice(i)]))
        for i, obj in enumerate(state.objects)]
    return FullState(new_core, new_extr, new_objects)


def _init_jacobians(state: FullState, rot_wi: np.ndarray, rot_ic: np.ndarray,
                    p_co: np.ndarray, rot_co: np.ndarray):
    """Chain-rule Jacobians of a new object's pose error w.r.t. the existing
    error state (h_x) and the measurement noise [n_p, n_theta] (j_n)."""
    rot_wc = rot_wi @ rot_ic
    lever = state.extr.p_ic + rot_ic @ p_co

    h_x = np.zeros((6, state.error_dim))
    # dp_wo rows
    h_x[0:3, POS] = np.eye(3)
    h_x[0:3, ATT] = -rot_wi @ skew(lever)
    h_x[0:3, P_IC] = rot_wi
    h_x[0:3, ATT_IC] = -rot_wc @ skew(p_co)
    # dtheta_wo rows
    h_x[3:6, ATT] = rot_co.T @ rot_ic.T
    h_x[3:6, ATT_IC] = rot_co.T

    j_n = np.zeros((6, 6))
    j_n[0:3, 0:3] = rot_wc
    j_n[3:6, 3:6] = -np.eye(3)
    return h_x, j_n


def add_object(state: FullState, cov: np.ndarray, obj: ObjectState,
               meas_cov: np.ndarray):
    """Register a new object and grow the covariance.

    meas_cov is the 6x6 block-diagonal covariance of the originating relative
    pose measurement (position then rotation, camera frame). The new 6x6 block
    and its cross-covariances follow from the chain rule through the current
    robot pose and extrinsics. The object is appended, so the first object
    added is the anchor and each id is a list position.
    """
    obj = obj.copy()

    rot_wi = rot_of(state.core.q_wi)
    rot_ic = rot_of(state.extr.q_ic)
    rot_wc = rot_wi @ rot_ic
    p_co = rot_ic.T @ (
        -state.extr.p_ic + rot_wi.T @ (obj.p_wo - state.core.p_wi))
    rot_co = rot_wc.T @ rot_of(obj.q_wo)
    h_x, j_n = _init_jacobians(state, rot_wi, rot_ic, p_co, rot_co)

    old_dim = state.error_dim
    new_cov = np.zeros((old_dim + 6, old_dim + 6))
    new_cov[:old_dim, :old_dim] = cov
    cross = h_x @ cov
    new_cov[old_dim:, :old_dim] = cross
    new_cov[:old_dim, old_dim:] = cross.T
    new_cov[old_dim:, old_dim:] = h_x @ cov @ h_x.T + j_n @ meas_cov @ j_n.T

    new_state = state.copy()
    new_state.objects.append(obj)
    return new_state, symmetrize(new_cov)
