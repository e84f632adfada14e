"""Association of per-image measurements to estimated object frames and
initialization of objects seen for the first time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geom3 import Pose, log_so3, quat_mul, rot_of
from .state import FullState, ObjectState, add_object
from .update_direct import PoseMeasurement

_INFEASIBLE = 1e15


@dataclass
class MatchConfig:
    """Assignment cost weights (1/m, 1/rad) and feasibility gate on the
    combined cost. Pairs with mismatched classes are never feasible."""

    w_p: float = 1.0
    w_theta: float = 1.0
    gate: float = 1.0


def project_measurement(core, extr, meas: PoseMeasurement) -> Pose:
    """Measured object pose expressed in the world frame."""
    rot_wi = rot_of(core.q_wi)
    p_wo = core.p_wi + rot_wi @ (extr.p_ic + rot_of(extr.q_ic) @ meas.p_co)
    q_wo = quat_mul(quat_mul(core.q_wi, extr.q_ic), meas.q_co)
    return Pose(p_wo, q_wo)


def geodesic_angle(q_a: np.ndarray, q_b: np.ndarray) -> float:
    return float(np.linalg.norm(log_so3(rot_of(q_a).T @ rot_of(q_b))))


def match(projected, objects, cfg: MatchConfig):
    """Optimal assignment of projected measurements to estimated objects.

    projected is a list of (Pose, class) in measurement order; objects a list
    of ObjectState. Cost is w_p * |dp| + w_theta * geodesic(dR); pairs with a
    class mismatch or cost above the gate are infeasible. Returns
    (pairs, unmatched): pairs as (measurement index, object index) sorted by
    measurement index, unmatched as the measurement indices left over (these
    trigger initialization).
    """
    n_meas, n_obj = len(projected), len(objects)
    if n_meas == 0 or n_obj == 0:
        return [], list(range(n_meas))
    cost = np.full((n_meas, n_obj), _INFEASIBLE)
    for i, (pose, obj_class) in enumerate(projected):
        for j, obj in enumerate(objects):
            if obj_class != obj.obj_class:
                continue
            c = (cfg.w_p * float(np.linalg.norm(pose.p - obj.p_wo))
                 + cfg.w_theta * geodesic_angle(pose.q, obj.q_wo))
            if c <= cfg.gate:
                cost[i, j] = c
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols)
             if cost[i, j] < _INFEASIBLE]
    matched_meas = {i for i, _ in pairs}
    unmatched = [i for i in range(n_meas) if i not in matched_meas]
    return sorted(pairs), unmatched


def initialize_object(state: FullState, cov: np.ndarray,
                      meas: PoseMeasurement, obj_id: int):
    """Create a new object state from an unmatched measurement.

    The pose is the projected measurement; the covariance block comes from
    the chain rule through the current robot pose plus the reported
    measurement covariance (see add_object), which appends it: the first
    object initialized is the anchor.
    """
    pose = project_measurement(state.core, state.extr, meas)
    obj = ObjectState(obj_id, meas.object_class, pose.p, pose.q)
    meas_cov = np.zeros((6, 6))
    meas_cov[:3, :3] = np.diag(meas.var_p)
    meas_cov[3:, 3:] = np.diag(meas.var_theta)
    return add_object(state, cov, obj, meas_cov)
