"""Association of per-image measurements to estimated object frames and
initialization of objects seen for the first time."""

from __future__ import annotations

import math

import numpy as np

from .geom3 import quat_mul, rot_of
from .state import FullState, ObjectState, add_object
from .update_direct import PoseMeasurement


def camera_frame(state) -> tuple:
    """What projecting a measurement needs of the state, evaluated once per
    camera tick: (p_wi, R_wi, p_ic, R_ic, q_wi (x) q_ic)."""
    return (state.p_wi, rot_of(state.q_wi), state.p_ic, rot_of(state.q_ic),
            quat_mul(state.q_wi, state.q_ic))


def project_measurement(camera: tuple, meas: PoseMeasurement) -> ObjectState:
    """Measured object with its pose expressed in the world frame, from the
    camera_frame of the state."""
    p_wi, rot_wi, p_ic, rot_ic, q_wc = camera
    return ObjectState(meas.object_class,
                       p_wi + rot_wi @ (p_ic + rot_ic @ meas.p_co),
                       quat_mul(q_wc, meas.q_co))


def geodesic_angle(q_a, q_b) -> float:
    """Angle [rad] in [0, pi] of the rotation between two unit quaternions,
    given as any sequences of four floats: 2 atan2(|v|, |w|) of the
    relative quaternion q_a* (x) q_b. Unlike the norm of the matrix
    logarithm of R_a^T R_b it keeps full precision near 0 and near pi."""
    ax, ay, az, aw = q_a
    bx, by, bz, bw = q_b
    x = aw * bx - ax * bw - ay * bz + az * by
    y = aw * by + ax * bz - ay * bw - az * bx
    z = aw * bz - ax * by + ay * bx - az * bw
    w = aw * bw + ax * bx + ay * by + az * bz
    return 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), abs(w))


def _pose_floats(objects) -> list:
    """(class, position, quaternion) of each ObjectState, in Python floats."""
    return [(o.obj_class, o.p_wo.tolist(), o.q_wo.tolist()) for o in objects]


def match(projected, objects, gate: float):
    """Optimal assignment of projected measurements to estimated objects.

    projected and objects are lists of ObjectState, projected in
    measurement order. A pair costs |dp| [m] + geodesic_angle [rad] and is
    feasible when the classes agree and the cost is at most the gate; the
    costs are evaluated in Python floats, from each pose converted once.
    The assignment has the most feasible pairs and, among those, the least
    total cost. Returns (pairs, unmatched): pairs as (measurement index,
    object index) sorted by measurement index, unmatched as the measurement
    indices left over (these trigger initialization).
    """
    n_meas, n_obj = len(projected), len(objects)
    obj_poses = _pose_floats(objects)
    feasible = {}
    for i, (cls_m, (xm, ym, zm), q_m) in enumerate(_pose_floats(projected)):
        for j, (cls_o, (xo, yo, zo), q_o) in enumerate(obj_poses):
            if cls_m == cls_o:
                dx, dy, dz = xm - xo, ym - yo, zm - zo
                cost = (math.sqrt(dx * dx + dy * dy + dz * dz)
                        + geodesic_angle(q_m, q_o))
                if cost <= gate:
                    feasible[i, j] = cost
    if (len({i for i, _ in feasible}) == len(feasible)
            == len({j for _, j in feasible})):
        # every measurement and every object has at most one feasible
        # partner, so the feasible pairs are the optimum
        pairs = list(feasible)
    else:
        # an infeasible pair costs more than every feasible pair together,
        # so one more feasible pair always lowers the total; a fixed large
        # constant would round the feasible costs away
        big = 1.0 + sum(feasible.values())
        pairs = [p for p in min_cost_assignment(
            [[feasible.get((i, j), big) for j in range(n_obj)]
             for i in range(n_meas)]) if p in feasible]
    matched_meas = {i for i, _ in pairs}
    unmatched = [i for i in range(n_meas) if i not in matched_meas]
    return pairs, unmatched


def min_cost_assignment(cost):
    """A least-cost one-to-one assignment of min(rows, columns) pairs in a
    cost matrix given as a sequence of rows of finite floats, as (row, column)
    pairs sorted by row: shortest augmenting paths over dual potentials
    (the Hungarian method), O(rows^2 columns). It is exact; among equal-cost
    assignments it may choose other pairs than another solver would.
    """
    n, m = len(cost), len(cost[0]) if cost else 0
    if n > m:
        return sorted((i, j) for j, i in min_cost_assignment(
            list(zip(*cost))))
    if not all(math.isfinite(c) for row in cost for c in row):
        raise ValueError("assignment costs must be finite")
    # 1-based rows and columns; column 0 is the root of each search
    u, v = [0.0] * (n + 1), [0.0] * (m + 1)
    row_of, way = [0] * (m + 1), [0] * (m + 1)
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        slack, used = [math.inf] * (m + 1), [False] * (m + 1)
        while row_of[j0]:
            used[j0] = True
            i0, delta, j1 = row_of[j0], math.inf, 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    return sorted((row_of[j] - 1, j - 1) for j in range(1, m + 1)
                  if row_of[j])


def initialize_object(state: FullState, cov: np.ndarray,
                      meas: PoseMeasurement):
    """Create a new object state from an unmatched measurement.

    The pose is the projected measurement; the covariance block comes from
    the chain rule through the current robot pose plus the reported
    measurement covariance (see add_object), which appends it: the first
    object initialized is the anchor and the new object's id is the old
    object count.
    """
    obj = project_measurement(camera_frame(state), meas)
    meas_cov = np.zeros((6, 6))
    meas_cov[:3, :3] = np.diag(meas.var_p)
    meas_cov[3:, 3:] = np.diag(meas.var_theta)
    return add_object(state, cov, obj, meas_cov)
