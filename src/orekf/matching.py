"""Association of per-image measurements to estimated object frames and
initialization of objects seen for the first time."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geom3 import log_so3, quat_mul, rot_of
from .state import FullState, ObjectState, add_object
from .update_direct import PoseMeasurement


def project_measurement(core, extr, meas: PoseMeasurement) -> ObjectState:
    """Measured object with its pose expressed in the world frame."""
    rot_wi = rot_of(core.q_wi)
    p_wo = core.p_wi + rot_wi @ (extr.p_ic + rot_of(extr.q_ic) @ meas.p_co)
    q_wo = quat_mul(quat_mul(core.q_wi, extr.q_ic), meas.q_co)
    return ObjectState(meas.object_class, p_wo, q_wo)


def geodesic_angle(q_a: np.ndarray, q_b: np.ndarray) -> float:
    return float(np.linalg.norm(log_so3(rot_of(q_a).T @ rot_of(q_b))))


def match(projected, objects, gate: float):
    """Optimal assignment of projected measurements to estimated objects.

    projected and objects are lists of ObjectState, projected in
    measurement order. A pair costs |dp| [m] + geodesic(dR) [rad] and is
    feasible when the classes agree and the cost is at most the gate. The
    assignment has the most feasible pairs and, among those, the least
    total cost. Returns (pairs, unmatched): pairs as (measurement index,
    object index) sorted by measurement index, unmatched as the measurement
    indices left over (these trigger initialization).
    """
    n_meas, n_obj = len(projected), len(objects)
    if n_meas == 0 or n_obj == 0:
        return [], list(range(n_meas))
    cost = np.zeros((n_meas, n_obj))
    feasible = np.zeros((n_meas, n_obj), dtype=bool)
    for i, meas in enumerate(projected):
        for j, obj in enumerate(objects):
            if meas.obj_class == obj.obj_class:
                cost[i, j] = (float(np.linalg.norm(meas.p_wo - obj.p_wo))
                              + geodesic_angle(meas.q_wo, obj.q_wo))
                feasible[i, j] = cost[i, j] <= gate
    # an infeasible pair costs more than every feasible pair together, so
    # one more feasible pair always lowers the total; a fixed large constant
    # would round the feasible costs away
    cost[~feasible] = 1.0 + cost[feasible].sum()
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if feasible[i, j]]
    matched_meas = {i for i, _ in pairs}
    unmatched = [i for i in range(n_meas) if i not in matched_meas]
    return sorted(pairs), unmatched


def initialize_object(state: FullState, cov: np.ndarray,
                      meas: PoseMeasurement):
    """Create a new object state from an unmatched measurement.

    The pose is the projected measurement; the covariance block comes from
    the chain rule through the current robot pose plus the reported
    measurement covariance (see add_object), which appends it: the first
    object initialized is the anchor and the new object's id is the old
    object count.
    """
    obj = project_measurement(state.core, state.extr, meas)
    meas_cov = np.zeros((6, 6))
    meas_cov[:3, :3] = np.diag(meas.var_p)
    meas_cov[3:, 3:] = np.diag(meas.var_theta)
    return add_object(state, cov, obj, meas_cov)
