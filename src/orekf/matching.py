"""Association of per-image measurements to estimated object frames and
initialization of objects seen for the first time."""

from __future__ import annotations

import math

import numpy as np

from .geom3 import log_so3, quat_mul, rot_of
from .state import FullState, ObjectState, add_object
from .update_direct import PoseMeasurement


def project_measurement(state, meas: PoseMeasurement) -> ObjectState:
    """Measured object with its pose expressed in the world frame."""
    rot_wi = rot_of(state.q_wi)
    p_wo = state.p_wi + rot_wi @ (state.p_ic + rot_of(state.q_ic) @ meas.p_co)
    q_wo = quat_mul(quat_mul(state.q_wi, state.q_ic), meas.q_co)
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
    feasible = {}
    for i, meas in enumerate(projected):
        for j, obj in enumerate(objects):
            if meas.obj_class == obj.obj_class:
                cost = (float(np.linalg.norm(meas.p_wo - obj.p_wo))
                        + geodesic_angle(meas.q_wo, obj.q_wo))
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
    obj = project_measurement(state, meas)
    meas_cov = np.zeros((6, 6))
    meas_cov[:3, :3] = np.diag(meas.var_p)
    meas_cov[3:, 3:] = np.diag(meas.var_theta)
    return add_object(state, cov, obj, meas_cov)
