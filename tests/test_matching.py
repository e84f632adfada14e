import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orekf.geom3 import Pose, QUAT_IDENTITY, exp_so3, quat_of
from orekf.matching import MatchConfig, geodesic_angle, initialize_object, \
    match, project_measurement
from orekf.state import CoreState, Extrinsics, FullState, ObjectState
from orekf.update_direct import PoseMeasurement
from tests.test_update_direct import identity_state, random_state


def measurement(p, q=None, var=1e-4, obj_class="box"):
    return PoseMeasurement(obj_class, np.asarray(p, dtype=float),
                           QUAT_IDENTITY.copy() if q is None else q,
                           np.full(3, var), np.full(3, var))


class TestProjectMeasurement:
    def test_identity_passthrough(self):
        s = identity_state()
        q = quat_of(exp_so3([0.1, 0.2, 0.3]))
        pose = project_measurement(s.core, s.extr, measurement([1, 2, 3], q))
        assert_allclose(pose.p, [1, 2, 3])
        assert_allclose(pose.q, q, atol=1e-12)

    def test_translation_composition(self):
        s = identity_state()
        s.core.p_wi = np.array([1.0, 0.0, 0.0])
        pose = project_measurement(s.core, s.extr, measurement([0, 0, 2]))
        assert_allclose(pose.p, [1, 0, 2])

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_state(rng, 0)
            meas = measurement(rng.normal(size=3),
                               quat_of(exp_so3(rng.normal(size=3))))
            pose = project_measurement(s.core, s.extr, meas)
            t_wi = Pose(s.core.p_wi, s.core.q_wi).as_matrix()
            t_ic = Pose(s.extr.p_ic, s.extr.q_ic).as_matrix()
            t_co = Pose(meas.p_co, meas.q_co).as_matrix()
            expect = t_wi @ t_ic @ t_co
            assert_allclose(pose.as_matrix(), expect, atol=1e-12)


class TestMatch:
    def test_single_in_gate_matches(self):
        objects = [ObjectState("box", np.array([1.0, 0, 0]),
                               QUAT_IDENTITY.copy())]
        projected = [(Pose(np.array([1.05, 0, 0]), QUAT_IDENTITY.copy()), "box")]
        pairs, unmatched = match(projected, objects, MatchConfig())
        assert pairs == [(0, 0)]
        assert unmatched == []

    def test_class_mismatch_goes_unmatched(self):
        objects = [ObjectState("mug", np.array([1.0, 0, 0]),
                               QUAT_IDENTITY.copy())]
        projected = [(Pose(np.array([1.0, 0, 0]), QUAT_IDENTITY.copy()), "box")]
        pairs, unmatched = match(projected, objects, MatchConfig())
        assert pairs == []
        assert unmatched == [0]

    def test_cost_above_gate_goes_unmatched(self):
        objects = [ObjectState("box", np.array([5.0, 0, 0]),
                               QUAT_IDENTITY.copy())]
        projected = [(Pose(np.array([1.0, 0, 0]), QUAT_IDENTITY.copy()), "box")]
        pairs, unmatched = match(projected, objects, MatchConfig(gate=1.0))
        assert pairs == []
        assert unmatched == [0]

    def test_empty_inputs(self):
        assert match([], [], MatchConfig()) == ([], [])
        objects = [ObjectState("box", np.zeros(3), QUAT_IDENTITY.copy())]
        assert match([], objects, MatchConfig()) == ([], [])

    def test_assignment_matches_brute_force(self):
        rng = np.random.default_rng(1)
        cfg = MatchConfig(gate=100.0)
        for _ in range(30):
            n = 3
            objects = [ObjectState("box", rng.normal(size=3),
                                   quat_of(exp_so3(rng.normal(size=3))))
                       for j in range(n)]
            projected = [(Pose(rng.normal(size=3),
                               quat_of(exp_so3(rng.normal(size=3)))), "box")
                         for _ in range(n)]
            pairs, unmatched = match(projected, objects, cfg)
            assert unmatched == []

            def pair_cost(i, j):
                pose = projected[i][0]
                return (cfg.w_p * np.linalg.norm(pose.p - objects[j].p_wo)
                        + cfg.w_theta * geodesic_angle(pose.q,
                                                       objects[j].q_wo))

            total = sum(pair_cost(i, j) for i, j in pairs)
            best = min(sum(pair_cost(i, perm[i]) for i in range(n))
                       for perm in itertools.permutations(range(n)))
            assert total <= best + 1e-9

    def test_hungarian_beats_all_permutations_up_to_six(self):
        rng = np.random.default_rng(2)
        cfg = MatchConfig(gate=1e6)
        for n in (2, 4, 6):
            objects = [ObjectState("box", rng.normal(size=3) * 3,
                                   QUAT_IDENTITY.copy())
                       for j in range(n)]
            projected = [(Pose(rng.normal(size=3) * 3, QUAT_IDENTITY.copy()),
                          "box") for _ in range(n)]
            pairs, _ = match(projected, objects, cfg)
            cost = lambda i, j: np.linalg.norm(projected[i][0].p
                                               - objects[j].p_wo)
            total = sum(cost(i, j) for i, j in pairs)
            for perm in itertools.permutations(range(n)):
                assert total <= sum(cost(i, perm[i]) for i in range(n)) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        objects = [ObjectState("box", rng.normal(size=3),
                               QUAT_IDENTITY.copy()) for j in range(4)]
        projected = [(Pose(rng.normal(size=3), QUAT_IDENTITY.copy()), "box")
                     for _ in range(4)]
        out1 = match(projected, objects, MatchConfig(gate=50.0))
        out2 = match(projected, objects, MatchConfig(gate=50.0))
        assert out1 == out2


class TestInitializeObject:
    def test_first_seen_becomes_anchor(self):
        s = identity_state()
        s.objects = []  # start with no objects
        cov = np.eye(21) * 1e-6
        s2, cov2 = initialize_object(s, cov, measurement([2.0, 0, 0]))
        assert cov2.shape == (27, 27)

    def test_pose_equals_projection(self):
        rng = np.random.default_rng(4)
        s = random_state(rng, 0)
        meas = measurement(rng.normal(size=3),
                           quat_of(exp_so3(rng.normal(size=3))))
        s2, _ = initialize_object(s, np.eye(21) * 1e-6, meas)
        pose = project_measurement(s.core, s.extr, meas)
        assert_allclose(s2.objects[0].p_wo, pose.p)
        assert_allclose(s2.objects[0].q_wo, pose.q)
        assert len(s2.objects) == 1
        assert s2.objects[0].obj_class == "box"

    def test_new_covariance_block_psd(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 0)
        a = rng.normal(size=(21, 21))
        cov = a @ a.T * 1e-4
        _, cov2 = initialize_object(s, cov, measurement(rng.normal(size=3)))
        assert np.min(np.linalg.eigvalsh(cov2)) > -1e-9
