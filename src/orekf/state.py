"""Nominal filter state, error-state covariance layout, and object registry.

Nominal layout (length 23 + 7N), one float vector:

    [p_wi, v_wi, q_wi, bias_gyro, bias_accel,
     p_ic, q_ic,
     p_wo_0, q_wo_0, ..., p_wo_{N-1}, q_wo_{N-1}]

Error-state layout (dimension 21 + 6N):

    [dp_wi, dv_wi, dtheta_wi, db_gyro, db_accel,
     dp_ic, dtheta_ic,
     dp_wo_0, dtheta_wo_0, ..., dp_wo_{N-1}, dtheta_wo_{N-1}]

Vector blocks are additive; rotation blocks are right perturbations injected
as q <- q (x) quat_of(exp_so3(dtheta)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom3 import quat_exp_components, quat_mul_components, rot_of, skew


CORE_DIM = 15
EXTR_DIM = 6
BASE_DIM = CORE_DIM + EXTR_DIM  # 21
BASE_LEN = 23  # nominal values before the first object

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
class ObjectState:
    """An object's class and world pose; its id is its list position."""

    obj_class: str
    p_wo: np.ndarray
    q_wo: np.ndarray

    def copy(self) -> "ObjectState":
        return ObjectState(self.obj_class, self.p_wo.copy(), self.q_wo.copy())


class FullState:
    """The nominal state as one float vector x in the nominal layout, and
    the class names of the objects in the order they were added; the first
    object is the anchor. The named blocks are views into x."""

    __slots__ = ("x", "classes")

    p_wi = property(lambda self: self.x[0:3])
    v_wi = property(lambda self: self.x[3:6])
    q_wi = property(lambda self: self.x[6:10])
    bias_gyro = property(lambda self: self.x[10:13])
    bias_accel = property(lambda self: self.x[13:16])
    p_ic = property(lambda self: self.x[16:19])
    q_ic = property(lambda self: self.x[19:23])

    def __init__(self, x: np.ndarray, classes: tuple):
        self.x, self.classes = x, classes

    @classmethod
    def from_parts(cls, p_wi, v_wi, q_wi, bias_gyro, bias_accel, p_ic, q_ic,
                   objects) -> "FullState":
        """The state of the given blocks and list of ObjectState, copied."""
        return cls(np.concatenate(
            [p_wi, v_wi, q_wi, bias_gyro, bias_accel, p_ic, q_ic]
            + [part for o in objects for part in (o.p_wo, o.q_wo)],
            dtype=float), tuple(o.obj_class for o in objects))

    @property
    def objects(self) -> list:
        """The objects as ObjectState whose poses are views into x."""
        x = self.x
        return [ObjectState(c, x[i:i + 3], x[i + 3:i + 7])
                for c, i in zip(self.classes, range(BASE_LEN, len(x), 7))]

    @property
    def error_dim(self) -> int:
        return BASE_DIM + 6 * len(self.classes)


def symmetrize(cov: np.ndarray) -> np.ndarray:
    """(P + P^T) / 2 of one matrix or of each in a stack."""
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def inject_error(state: FullState, dx: np.ndarray) -> FullState:
    """Apply an error-state vector to the nominal state (the boxplus).

    Vector blocks add; each quaternion block q becomes q (x) exp(dtheta),
    in one scalar pass over the blocks. An exactly zero dtheta leaves its
    quaternion bit-identical (the anchor relies on this).
    """
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (state.error_dim,):
        raise ValueError(
            f"error vector has dimension {dx.shape}, expected ({state.error_dim},)")
    x = state.x.copy()
    x[0:6] += dx[0:6]            # p_wi, v_wi
    x[10:19] += dx[9:18]         # bias_gyro, bias_accel, p_ic
    x[BASE_LEN:].reshape(-1, 7)[:, :3] += dx[BASE_DIM:].reshape(-1, 6)[:, :3]
    nominal, error = state.x.tolist(), dx.tolist()
    # (nominal index, error index) of the attitude, the camera mount and
    # each object's orientation
    blocks = [(6, 6), (19, 18)] + [(BASE_LEN + 7 * i + 3, BASE_DIM + 6 * i + 3)
                                   for i in range(len(state.classes))]
    for at, i in blocks:
        dtheta = error[i:i + 3]
        if any(dtheta):          # nonzero or NaN; -0.0 counts as zero
            x[at:at + 4] = quat_mul_components(nominal[at:at + 4],
                                               quat_exp_components(dtheta))
    return FullState(x, state.classes)


def _init_jacobians(state: FullState, rot_wi: np.ndarray, rot_ic: np.ndarray,
                    p_co: np.ndarray, rot_co: np.ndarray):
    """Chain-rule Jacobians of a new object's pose error w.r.t. the existing
    error state (h_x) and the measurement noise [n_p, n_theta] (j_n)."""
    rot_wc = rot_wi @ rot_ic
    lever = state.p_ic + rot_ic @ p_co

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
    rot_wi = rot_of(state.q_wi)
    rot_ic = rot_of(state.q_ic)
    rot_wc = rot_wi @ rot_ic
    p_co = rot_ic.T @ (
        -state.p_ic + rot_wi.T @ (obj.p_wo - state.p_wi))
    rot_co = rot_wc.T @ rot_of(obj.q_wo)
    h_x, j_n = _init_jacobians(state, rot_wi, rot_ic, p_co, rot_co)

    old_dim = state.error_dim
    new_cov = np.zeros((old_dim + 6, old_dim + 6))
    new_cov[:old_dim, :old_dim] = cov
    cross = h_x @ cov
    new_cov[old_dim:, :old_dim] = cross
    new_cov[:old_dim, old_dim:] = cross.T
    new_cov[old_dim:, old_dim:] = h_x @ cov @ h_x.T + j_n @ meas_cov @ j_n.T

    new_state = FullState(np.concatenate((state.x, obj.p_wo, obj.q_wo)),
                          state.classes + (obj.obj_class,))
    return new_state, symmetrize(new_cov)
