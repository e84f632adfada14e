import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from orekf.geom3 import QUAT_IDENTITY, exp_so3, log_so3, quat_exp, \
    quat_mul, quat_of, rot_of
from orekf.matching import camera_frame, geodesic_angle, initialize_object, \
    match, min_cost_assignment, project_measurement
from orekf.state import FullState, ObjectState
from orekf.update_direct import PoseMeasurement
from tests.test_geom3 import Pose
from tests.test_update_direct import identity_state, random_state


def measurement(p, q=None, var=1e-4, obj_class="box"):
    return PoseMeasurement(obj_class, np.asarray(p, dtype=float),
                           QUAT_IDENTITY.copy() if q is None else q,
                           np.full(3, var), np.full(3, var))


def box(p, q=None):
    return ObjectState("box", np.asarray(p, dtype=float),
                       QUAT_IDENTITY.copy() if q is None else q)


def pair_cost(meas, obj):
    return (np.linalg.norm(meas.p_wo - obj.p_wo)
            + geodesic_angle(meas.q_wo, obj.q_wo))


def matrix_log_angle(q_a, q_b):
    """The geodesic as the norm of the matrix logarithm of R_a^T R_b."""
    return float(np.linalg.norm(log_so3(rot_of(q_a).T @ rot_of(q_b))))


def matrix_log_cost(meas, obj):
    return (float(np.linalg.norm(meas.p_wo - obj.p_wo))
            + matrix_log_angle(meas.q_wo, obj.q_wo))


def projected_one_by_one(state, meas):
    """The projection of one measurement with the state's rotations
    evaluated for it alone."""
    p_wo = state.p_wi + rot_of(state.q_wi) @ (
        state.p_ic + rot_of(state.q_ic) @ meas.p_co)
    return p_wo, quat_mul(quat_mul(state.q_wi, state.q_ic), meas.q_co)


class TestProjectMeasurement:
    def test_identity_passthrough(self):
        s = identity_state()
        q = quat_of(exp_so3([0.1, 0.2, 0.3]))
        obj = project_measurement(camera_frame(s),
                                  measurement([1, 2, 3], q, obj_class="mug"))
        assert obj.obj_class == "mug"
        assert_allclose(obj.p_wo, [1, 2, 3])
        assert_allclose(obj.q_wo, q, atol=1e-12)

    def test_translation_composition(self):
        s = identity_state()
        s.p_wi[:] = [1.0, 0.0, 0.0]
        obj = project_measurement(camera_frame(s), measurement([0, 0, 2]))
        assert_allclose(obj.p_wo, [1, 0, 2])

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_state(rng, 0)
            meas = measurement(rng.normal(size=3),
                               quat_of(exp_so3(rng.normal(size=3))))
            obj = project_measurement(camera_frame(s), meas)
            t_wi = Pose(s.p_wi, s.q_wi).as_matrix()
            t_ic = Pose(s.p_ic, s.q_ic).as_matrix()
            t_co = Pose(meas.p_co, meas.q_co).as_matrix()
            expect = t_wi @ t_ic @ t_co
            assert_allclose(Pose(obj.p_wo, obj.q_wo).as_matrix(), expect,
                            atol=1e-12)

    def test_frame_projection_is_the_one_by_one_projection_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = random_state(rng, 2)
            camera = camera_frame(s)
            for _ in range(4):
                meas = measurement(rng.normal(size=3) * 3,
                                   quat_of(exp_so3(rng.normal(size=3))))
                obj = project_measurement(camera, meas)
                p_wo, q_wo = projected_one_by_one(s, meas)
                assert obj.p_wo.tobytes() == p_wo.tobytes()
                assert obj.q_wo.tobytes() == q_wo.tobytes()


def unit_axes():
    return hs.lists(hs.floats(-1.0, 1.0), min_size=3, max_size=3).map(
        np.array).filter(lambda v: np.linalg.norm(v) > 0.1).map(
        lambda v: v / np.linalg.norm(v))


def base_quats():
    return hs.lists(hs.floats(-3.0, 3.0), min_size=3, max_size=3).map(
        lambda v: quat_exp(np.array(v)))


class TestGeodesicAngle:
    @settings(max_examples=300, deadline=None)
    @given(base_quats(), unit_axes(),
           hs.one_of(hs.floats(0.0, 1e-6), hs.floats(0.0, np.pi),
                     hs.floats(np.pi - 1e-7, np.pi)))
    def test_agrees_with_the_matrix_logarithm(self, q_a, axis, angle):
        q_b = quat_mul(q_a, quat_exp(angle * axis))
        # within 1e-6 of pi the matrix form takes its angle from the arccos
        # of a trace that is rounded near -1, which resolves it only to
        # about sqrt(2 eps); in 10,000 such pairs it was off by up to 4.5e-8
        tol = 1e-8 if angle < np.pi - 1e-6 else 1e-7
        assert abs(geodesic_angle(q_a, q_b)
                   - matrix_log_angle(q_a, q_b)) <= tol

    @settings(max_examples=300, deadline=None)
    @given(base_quats(), unit_axes(), hs.floats(np.pi - 1e-7, np.pi))
    def test_is_the_constructed_angle_near_pi(self, q_a, axis, angle):
        x, y, z = (angle * axis).tolist()
        q_b = quat_mul(q_a, quat_exp(np.array([x, y, z])))
        # the angle quat_exp rotates by, folded into [0, pi]
        built = math.sqrt(x * x + y * y + z * z)
        built = min(built, 2.0 * math.pi - built)
        assert abs(geodesic_angle(q_a, q_b) - built) <= 1e-15

    def test_takes_floats_or_arrays_and_is_symmetric(self):
        q_a = quat_exp(np.array([0.3, -0.2, 0.1]))
        q_b = quat_exp(np.array([-1.0, 0.5, 2.0]))
        got = geodesic_angle(q_a.tolist(), q_b.tolist())
        assert got == geodesic_angle(q_a, q_b)
        assert got == pytest.approx(geodesic_angle(q_b, q_a), abs=1e-15)
        assert geodesic_angle(q_a, -q_a) <= 1e-15


class TestMatch:
    def test_single_in_gate_matches(self):
        objects = [ObjectState("box", np.array([1.0, 0, 0]),
                               QUAT_IDENTITY.copy())]
        projected = [box([1.05, 0, 0])]
        pairs, unmatched = match(projected, objects, 6.0)
        assert pairs == [(0, 0)]
        assert unmatched == []

    def test_class_mismatch_goes_unmatched(self):
        objects = [ObjectState("mug", np.array([1.0, 0, 0]),
                               QUAT_IDENTITY.copy())]
        projected = [box([1.0, 0, 0])]
        pairs, unmatched = match(projected, objects, 6.0)
        assert pairs == []
        assert unmatched == [0]

    def test_cost_above_gate_goes_unmatched(self):
        objects = [ObjectState("box", np.array([5.0, 0, 0]),
                               QUAT_IDENTITY.copy())]
        projected = [box([1.0, 0, 0])]
        pairs, unmatched = match(projected, objects, 1.0)
        assert pairs == []
        assert unmatched == [0]

    def test_empty_inputs(self):
        assert match([], [], 6.0) == ([], [])
        objects = [ObjectState("box", np.zeros(3), QUAT_IDENTITY.copy())]
        assert match([], objects, 6.0) == ([], [])

    def test_assignment_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = 3
            objects = [ObjectState("box", rng.normal(size=3),
                                   quat_of(exp_so3(rng.normal(size=3))))
                       for j in range(n)]
            projected = [box(rng.normal(size=3),
                             quat_of(exp_so3(rng.normal(size=3))))
                         for _ in range(n)]
            pairs, unmatched = match(projected, objects, 100.0)
            assert unmatched == []

            total = sum(pair_cost(projected[i], objects[j])
                        for i, j in pairs)
            best = min(sum(pair_cost(projected[i], objects[perm[i]])
                           for i in range(n))
                       for perm in itertools.permutations(range(n)))
            assert total <= best + 1e-9

    def test_hungarian_beats_all_permutations_up_to_six(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 6):
            objects = [ObjectState("box", rng.normal(size=3) * 3,
                                   QUAT_IDENTITY.copy())
                       for j in range(n)]
            projected = [box(rng.normal(size=3) * 3) for _ in range(n)]
            pairs, _ = match(projected, objects, 1e6)
            cost = lambda i, j: np.linalg.norm(projected[i].p_wo
                                               - objects[j].p_wo)
            total = sum(cost(i, j) for i, j in pairs)
            for perm in itertools.permutations(range(n)):
                assert total <= sum(cost(i, perm[i]) for i in range(n)) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        objects = [ObjectState("box", rng.normal(size=3),
                               QUAT_IDENTITY.copy()) for j in range(4)]
        projected = [box(rng.normal(size=3)) for _ in range(4)]
        out1 = match(projected, objects, 50.0)
        out2 = match(projected, objects, 50.0)
        assert out1 == out2


    def test_closer_of_two_measurements_updates_the_object(self):
        # one pair must be infeasible (the mug sees no mug measurement); a
        # large constant cost for it once rounded 0.30 and 0.31 to a tie
        objects = [box([0, 0, 0]),
                   ObjectState("mug", np.array([5.0, 0, 0]),
                               QUAT_IDENTITY.copy())]
        projected = [box([0.31, 0, 0]), box([0.30, 0, 0])]
        assert match(projected, objects, 6.0) == ([(1, 0)], [0])


def object_lists(min_size, max_size):
    vec = hs.lists(hs.floats(-0.5, 0.5), min_size=3, max_size=3)
    one = hs.tuples(hs.sampled_from(["box", "mug"]), vec, vec).map(
        lambda t: ObjectState(t[0], np.array(t[1]),
                              quat_of(exp_so3(np.array(t[2])))))
    return hs.lists(one, min_size=min_size, max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(object_lists(0, 4), object_lists(1, 4), hs.floats(0.05, 8.0))
def test_match_has_most_feasible_pairs_then_least_cost(projected, objects,
                                                        gate):
    """Brute-force oracle: every one-to-one choice of feasible pairs."""
    def feasible(i, j):
        return (projected[i].obj_class == objects[j].obj_class
                and pair_cost(projected[i], objects[j]) <= gate)

    best = (0, 0.0)
    for choice in itertools.product([None] + list(range(len(objects))),
                                    repeat=len(projected)):
        used = [j for j in choice if j is not None]
        if len(set(used)) < len(used) or not all(
                feasible(i, j) for i, j in enumerate(choice) if j is not None):
            continue
        total = sum(pair_cost(projected[i], objects[j])
                    for i, j in enumerate(choice) if j is not None)
        if (-len(used), total) < (-best[0], best[1]):
            best = (len(used), total)

    pairs, unmatched = match(projected, objects, gate)
    assert all(feasible(i, j) for i, j in pairs)
    assert sorted([i for i, _ in pairs] + unmatched) == list(
        range(len(projected)))
    assert len(pairs) == best[0]
    assert sum(pair_cost(projected[i], objects[j])
               for i, j in pairs) == pytest.approx(best[1], abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(object_lists(1, 4), object_lists(1, 4), hs.floats(0.3, 5.0))
def test_match_returns_the_brute_force_assignment(projected, objects, gate):
    """Oracle: every one-to-one choice of feasible pairs, ranked by pair
    count and then by total cost, with the matrix-log cost. Classes come
    from two names, so most draws repeat one and reach the solver."""
    cost = {(i, j): matrix_log_cost(p, o)
            for i, p in enumerate(projected) for j, o in enumerate(objects)
            if p.obj_class == o.obj_class}
    # the two cost forms differ by less than 1e-7; keep the draws whose
    # answer does not hinge on that
    assume(all(abs(c - gate) > 1e-6 for c in cost.values()))
    ranked = []
    for choice in itertools.product([None] + list(range(len(objects))),
                                    repeat=len(projected)):
        pairs = [(i, j) for i, j in enumerate(choice) if j is not None]
        if (len({j for _, j in pairs}) == len(pairs)
                and all(cost.get(p, math.inf) <= gate for p in pairs)):
            ranked.append((-len(pairs), sum(cost[p] for p in pairs), pairs))
    ranked.sort()
    assume(len(ranked) == 1 or ranked[1][0] != ranked[0][0]
           or ranked[1][1] - ranked[0][1] > 1e-6)
    best = ranked[0][2]
    assert match(projected, objects, gate) == (
        best, [i for i in range(len(projected))
               if i not in {i for i, _ in best}])


def cost_matrices(elements):
    return hs.integers(1, 6).flatmap(lambda cols: hs.lists(
        hs.lists(elements, min_size=cols, max_size=cols),
        min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(cost_matrices(hs.integers(0, 5).map(float))
       | cost_matrices(hs.floats(0.0, 100.0, allow_subnormal=False)))
def test_assignment_costs_what_scipy_costs(cost):
    """scipy's linear_sum_assignment is the oracle for the total cost. On
    exact ties (frequent with small integer costs) the two solvers may
    choose different pairs of equal cost, so only the totals are compared,
    with the pair count and the one-to-one property."""
    pairs = min_cost_assignment(cost)
    rows, cols = linear_sum_assignment(np.array(cost))
    assert len(pairs) == len(rows) == min(len(cost), len(cost[0]))
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) \
        == len(pairs)
    assert pairs == sorted(pairs)
    total = sum(cost[i][j] for i, j in pairs)
    assert total == pytest.approx(sum(cost[i][j] for i, j in zip(rows, cols)),
                                  rel=1e-12, abs=1e-12)


def test_assignment_rejects_non_finite_costs():
    with pytest.raises(ValueError, match="finite"):
        min_cost_assignment([[0.0, np.inf], [1.0, 2.0]])


class TestInitializeObject:
    def test_first_seen_becomes_anchor(self):
        s = FullState.from_parts(np.zeros(3), np.zeros(3), QUAT_IDENTITY,
                                 np.zeros(3), np.zeros(3), np.zeros(3),
                                 QUAT_IDENTITY, [])  # no objects yet
        cov = np.eye(21) * 1e-6
        s2, cov2 = initialize_object(s, cov, measurement([2.0, 0, 0]))
        assert cov2.shape == (27, 27)

    def test_pose_equals_projection(self):
        rng = np.random.default_rng(4)
        s = random_state(rng, 0)
        meas = measurement(rng.normal(size=3),
                           quat_of(exp_so3(rng.normal(size=3))))
        s2, _ = initialize_object(s, np.eye(21) * 1e-6, meas)
        obj = project_measurement(camera_frame(s), meas)
        assert_allclose(s2.objects[0].p_wo, obj.p_wo)
        assert_allclose(s2.objects[0].q_wo, obj.q_wo)
        assert len(s2.objects) == 1
        assert s2.objects[0].obj_class == "box"

    def test_new_covariance_block_psd(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 0)
        a = rng.normal(size=(21, 21))
        cov = a @ a.T * 1e-4
        _, cov2 = initialize_object(s, cov, measurement(rng.normal(size=3)))
        assert np.min(np.linalg.eigvalsh(cov2)) > -1e-9
