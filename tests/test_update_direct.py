import numpy as np
import pytest
from numpy.testing import assert_allclose

from orekf.gating import GatingDecision, Verdict
from orekf.geom3 import QUAT_IDENTITY, exp_so3, quat_mul, quat_of
from orekf.state import FullState, ObjectState, inject_error
from orekf.update_direct import (
    DegenerateRotationError,
    PoseMeasurement,
    StackedUpdate,
    build_stacked,
    ekf_update,
    jacobians,
    predicted_relative_position,
    predicted_relative_quat,
    residual_position,
    residual_rotation,
)

ACCEPT = GatingDecision(Verdict.ACCEPT_ALL, 0.0)
REJECT_ROT = GatingDecision(Verdict.REJECT_ROTATION, 0.0)
REJECT_POS = GatingDecision(Verdict.REJECT_POSITION, 0.0)
REJECT_ALL = GatingDecision(Verdict.REJECT_ALL, 0.0)


def random_state(rng, n_objects=2):
    return FullState.from_parts(
        rng.normal(size=3), rng.normal(size=3),
        quat_of(exp_so3(rng.normal(size=3))), 0.01 * rng.normal(size=3),
        0.01 * rng.normal(size=3), 0.2 * rng.normal(size=3),
        quat_of(exp_so3(0.5 * rng.normal(size=3))),
        [ObjectState("box", rng.normal(size=3) * 2.0,
                     quat_of(exp_so3(rng.normal(size=3))))
         for i in range(n_objects)])


def consistent_measurement(state, obj_index, var=1e-4):
    obj = state.objects[obj_index]
    return PoseMeasurement(
        obj.obj_class,
        predicted_relative_position(state, obj),
        predicted_relative_quat(state, obj),
        np.full(3, var), np.full(3, var))


def identity_state(p_wo=(1.0, 0.0, 0.0)):
    obj = ObjectState("box", np.asarray(p_wo, dtype=float), QUAT_IDENTITY)
    return FullState.from_parts(np.zeros(3), np.zeros(3), QUAT_IDENTITY,
                                np.zeros(3), np.zeros(3), np.zeros(3),
                                QUAT_IDENTITY, [obj])


class TestResiduals:
    def test_consistent_measurement_zero_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_state(rng)
            meas = consistent_measurement(s, 1)
            obj = s.objects[1]
            assert np.max(np.abs(residual_position(s, obj, meas))) < 1e-12
            assert np.max(np.abs(residual_rotation(s, obj, meas))) < 1e-12

    def test_identity_direct_subtraction(self):
        s = identity_state()
        meas = PoseMeasurement("box", np.array([1.1, 0, 0]),
                               QUAT_IDENTITY.copy(), np.ones(3), np.ones(3))
        assert_allclose(residual_position(s, s.objects[0], meas),
                        [0.1, 0, 0], atol=1e-14)

    def test_rotation_residual_small_angle_form(self):
        s = identity_state()
        yaw = np.deg2rad(10.0)
        meas = PoseMeasurement("box", np.array([1.0, 0, 0]),
                               quat_of(exp_so3([0, 0, yaw])),
                               np.ones(3), np.ones(3))
        r = residual_rotation(s, s.objects[0], meas)
        assert_allclose(r, [0, 0, 2 * np.tan(yaw / 2)], atol=1e-12)

    def test_rotation_residual_agrees_with_log_map(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = random_state(rng, 1)
            angle = rng.uniform(0.01, 0.2)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            q_meas = quat_mul(predicted_relative_quat(s, s.objects[0]),
                              quat_of(exp_so3(angle * axis)))
            meas = PoseMeasurement("box", np.zeros(3), q_meas,
                                   np.ones(3), np.ones(3))
            r = residual_rotation(s, s.objects[0], meas)
            # 2 tan(theta/2) u vs theta u: cubic discrepancy
            assert np.linalg.norm(r - angle * axis) < 0.5 * angle**3

    def test_degenerate_near_pi_raises(self):
        s = identity_state()
        q_meas = quat_of(exp_so3([0, 0, np.pi - 1e-9]))
        meas = PoseMeasurement("box", np.zeros(3), q_meas,
                               np.ones(3), np.ones(3))
        with pytest.raises(DegenerateRotationError):
            residual_rotation(s, s.objects[0], meas)

    def test_position_residual_ignores_measured_rotation(self):
        rng = np.random.default_rng(2)
        s = random_state(rng, 1)
        p = rng.normal(size=3)
        m1 = PoseMeasurement("box", p, QUAT_IDENTITY.copy(),
                             np.ones(3), np.ones(3))
        m2 = PoseMeasurement("box", p, quat_of(exp_so3(rng.normal(size=3))),
                             np.ones(3), np.ones(3))
        r1 = residual_position(s, s.objects[0], m1)
        r2 = residual_position(s, s.objects[0], m2)
        assert np.array_equal(r1, r2)  # bit-identical decoupling


def fd_jacobian(resid_fn, state, step=1e-6):
    """Central finite differences of a residual w.r.t. the error state; the
    measurement is held fixed, so H = -d(residual)/d(dx)."""
    dim = state.error_dim
    jac = np.zeros((3, dim))
    for k in range(dim):
        dx = np.zeros(dim)
        dx[k] = step
        r_plus = resid_fn(inject_error(state, dx))
        r_minus = resid_fn(inject_error(state, -dx))
        jac[:, k] = -(r_plus - r_minus) / (2 * step)
    return jac


class TestJacobians:
    def test_identity_blocks(self):
        s = identity_state()
        h_p, h_r = jacobians(s, 0)
        assert_allclose(h_p[:, 0:3], -np.eye(3))          # w.r.t. p_wi
        assert_allclose(h_p[:, 21:24], np.eye(3))         # w.r.t. p_wo
        assert_allclose(h_r[:, 24:27], np.eye(3))         # w.r.t. theta_wo
        # velocity and bias columns are zero
        assert_allclose(h_p[:, 3:6], 0.0)
        assert_allclose(h_p[:, 9:15], 0.0)
        assert_allclose(h_r[:, 9:15], 0.0)

    def test_rotation_rows_have_zero_position_columns(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_state(rng)
            _, h_r = jacobians(s, 1)
            assert_allclose(h_r[:, 0:3], 0.0)    # p_wi
            assert_allclose(h_r[:, 15:18], 0.0)  # p_ic
            assert_allclose(h_r[:, 27:30], 0.0)  # p_wo of object 1

    def test_other_object_columns_zero(self):
        rng = np.random.default_rng(4)
        s = random_state(rng, 3)
        h_p, h_r = jacobians(s, 1)
        for other in (0, 2):
            assert_allclose(h_p[:, 21 + 6 * other:27 + 6 * other], 0.0)
            assert_allclose(h_r[:, 21 + 6 * other:27 + 6 * other], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            s = random_state(rng)
            idx = int(rng.integers(0, 2))
            meas = consistent_measurement(s, idx)
            obj_of = lambda stp: stp.objects[idx]
            h_p, h_r = jacobians(s, idx)
            fd_p = fd_jacobian(
                lambda stp: residual_position(stp, obj_of(stp),
                                              meas), s)
            fd_r = fd_jacobian(
                lambda stp: residual_rotation(stp, obj_of(stp),
                                              meas), s)
            assert np.max(np.abs(h_p - fd_p)) < 1e-5
            assert np.max(np.abs(h_r - fd_r)) < 1e-5


class TestBuildStacked:
    def test_two_objects_fully_accepted(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 2)
        matches = [(i, consistent_measurement(s, i)) for i in range(2)]
        stacked = build_stacked(s, matches, [ACCEPT, ACCEPT])
        assert stacked.residual.shape == (12,)
        assert stacked.jacobian.shape == (12, s.error_dim)
        assert stacked.noise_cov.shape == (12, 12)

    def test_rotation_rejected_keeps_position_rows(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 1)
        stacked = build_stacked(s, [(0, consistent_measurement(s, 0))],
                                [REJECT_ROT])
        assert stacked.residual.shape == (3,)

    def test_row_ordering_against_permutation_oracle(self):
        rng = np.random.default_rng(8)
        s = random_state(rng, 3)
        meas = [consistent_measurement(s, i) for i in range(3)]
        decisions = [ACCEPT, REJECT_POS, REJECT_ROT]
        stacked = build_stacked(s, list(enumerate(meas)), decisions)
        # oracle: build the full 18-row stack, then delete by bookkeeping
        full_rows = []
        for i in range(3):
            h_p, h_r = jacobians(s, i)
            full_rows.append(("p", i, h_p, meas[i].var_p))
            full_rows.append(("r", i, h_r, meas[i].var_theta))
        keep = [("p", 0), ("r", 0), ("r", 1), ("p", 2)]
        expect_h = np.vstack([h for kind, i, h, _ in full_rows
                              if (kind, i) in keep])
        expect_var = np.concatenate([v for kind, i, _, v in full_rows
                                     if (kind, i) in keep])
        assert stacked.jacobian.shape == (12, s.error_dim)
        assert_allclose(stacked.jacobian, expect_h)
        assert_allclose(np.diag(stacked.noise_cov), expect_var)

    def test_all_rejected_returns_none(self):
        rng = np.random.default_rng(9)
        s = random_state(rng, 1)
        assert build_stacked(s, [(0, consistent_measurement(s, 0))],
                             [REJECT_ALL]) is None

    def test_empty_matches_raises(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            build_stacked(random_state(rng, 1), [], [])


class TestEkfUpdate:
    def test_zero_residual_keeps_state_and_shrinks_trace(self):
        rng = np.random.default_rng(11)
        s = random_state(rng, 1)
        a = rng.normal(size=(27, 27))
        cov = a @ a.T * 1e-4 + np.eye(27) * 1e-6
        stacked = build_stacked(s, [(0, consistent_measurement(s, 0))],
                                [ACCEPT])
        s2, cov2 = ekf_update(s, cov, stacked)
        assert_allclose(s2.p_wi, s.p_wi, atol=1e-12)
        assert_allclose(s2.q_wi, s.q_wi, atol=1e-12)
        assert np.trace(cov2) < np.trace(cov)

    def test_scalar_kalman_gain(self):
        # 1-D analog: prior variance 1, noise variance 1, residual 1 -> 0.5
        s = FullState.from_parts(np.zeros(3), np.zeros(3), QUAT_IDENTITY,
                                 np.zeros(3), np.zeros(3), np.zeros(3),
                                 QUAT_IDENTITY, [])
        cov = np.eye(21) * 1e-18
        cov[0, 0] = 1.0
        h = np.zeros((1, 21))
        h[0, 0] = 1.0
        stacked = StackedUpdate(np.array([1.0]), h, np.array([[1.0]]))
        s2, cov2 = ekf_update(s, cov, stacked)
        assert_allclose(s2.p_wi, [0.5, 0, 0], atol=1e-12)
        assert_allclose(cov2[0, 0], 0.5, atol=1e-12)

    def test_matches_batch_least_squares(self):
        # static 3-step linear problem on the position block
        rng = np.random.default_rng(12)
        s = FullState.from_parts(np.zeros(3), np.zeros(3), QUAT_IDENTITY,
                                 np.zeros(3), np.zeros(3), np.zeros(3),
                                 QUAT_IDENTITY, [])
        p0 = 4.0
        cov = np.eye(21) * 1e-18
        cov[0:3, 0:3] = np.eye(3) * p0
        h_row = np.zeros((3, 21))
        h_row[:, 0:3] = np.eye(3)
        zs = [rng.normal(size=3) for _ in range(3)]
        vars_ = [0.5, 1.0, 2.0]
        s_k, cov_k = s, cov
        for z, v in zip(zs, vars_):
            resid = z - s_k.p_wi
            s_k, cov_k = ekf_update(s_k, cov_k,
                                    StackedUpdate(resid, h_row, np.eye(3) * v))
        # independent batch solve of the same weighted LS problem
        info = np.eye(3) / p0
        rhs = np.zeros(3)
        for z, v in zip(zs, vars_):
            info += np.eye(3) / v
            rhs += z / v
        batch = np.linalg.solve(info, rhs)
        assert_allclose(s_k.p_wi, batch, atol=1e-6)
        assert_allclose(cov_k[0:3, 0:3], np.linalg.inv(info), atol=1e-6)

    def test_joseph_form_keeps_symmetry_and_psd(self):
        rng = np.random.default_rng(13)
        s = random_state(rng, 2)
        a = rng.normal(size=(33, 33))
        cov = a @ a.T * 1e-4 + np.eye(33) * 1e-9
        for _ in range(20):
            meas = consistent_measurement(s, 1)
            meas.p_co = meas.p_co + rng.normal(size=3) * 0.01
            stacked = build_stacked(s, [(1, meas)], [ACCEPT])
            s, cov = ekf_update(s, cov, stacked)
            assert np.max(np.abs(cov - cov.T)) < 1e-9
            assert np.min(np.diag(cov)) > -1e-12
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-9

    def test_singular_innovation_skips_update(self):
        rng = np.random.default_rng(14)
        s = random_state(rng, 1)
        cov = np.eye(27) * 1e-6
        h = np.zeros((2, 27))
        h[0, 0] = h[1, 0] = 1.0  # duplicate rows, zero noise -> singular S
        stacked = StackedUpdate(np.array([1.0, 1.0]), h, np.zeros((2, 2)))
        s2, cov2 = ekf_update(s, cov, stacked)
        assert_allclose(s2.p_wi, s.p_wi)
        assert np.array_equal(cov2, cov)

    def test_anchor_pose_bit_identical_after_update(self):
        rng = np.random.default_rng(15)
        s = random_state(rng, 2)
        a = rng.normal(size=(33, 33))
        cov = a @ a.T * 1e-4 + np.eye(33) * 1e-8
        anchor_p = s.objects[0].p_wo.copy()
        anchor_q = s.objects[0].q_wo.copy()
        for _ in range(5):
            meas0 = consistent_measurement(s, 0)
            meas0.p_co = meas0.p_co + rng.normal(size=3) * 0.05
            meas1 = consistent_measurement(s, 1)
            stacked = build_stacked(s, [(0, meas0), (1, meas1)],
                                    [ACCEPT, ACCEPT])
            s, cov = ekf_update(s, cov, stacked)
        assert np.array_equal(s.objects[0].p_wo, anchor_p)
        assert np.array_equal(s.objects[0].q_wo, anchor_q)
        # the non-anchor object does move
        assert not np.array_equal(s.objects[1].p_wo,
                                  random_state(np.random.default_rng(15),
                                               2).objects[1].p_wo)


def test_measurement_validation():
    with pytest.raises(ValueError):
        PoseMeasurement("box", np.zeros(3), QUAT_IDENTITY.copy(),
                        np.zeros(3), np.ones(3))
