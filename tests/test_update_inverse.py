import numpy as np
import pytest
from numpy.testing import assert_allclose

from orekf.gating import GatingDecision, Verdict
from orekf.geom3 import QUAT_IDENTITY, exp_so3, quat_conj, quat_mul, quat_of, rot_of
from orekf.update_direct import PoseMeasurement, ekf_update
from orekf.update_direct import residual_position as direct_residual_position
from orekf import update_inverse as ui
from tests.test_update_direct import consistent_measurement, fd_jacobian, random_state

ACCEPT = GatingDecision(Verdict.ACCEPT_ALL, 0.0)


def inverted_consistent(state, obj_index, var=1e-4):
    return ui.invert_measurement(consistent_measurement(state, obj_index, var))


class TestInvertMeasurement:
    def test_identity_rotation(self):
        meas = PoseMeasurement("box", np.array([1.0, 2.0, 3.0]),
                               QUAT_IDENTITY.copy(), np.array([1.0, 2.0, 3.0]),
                               np.ones(3))
        inv = ui.invert_measurement(meas)
        assert_allclose(inv.p_oc, [-1, -2, -3])
        assert_allclose(inv.q_oc, QUAT_IDENTITY)
        assert_allclose(inv.cov_p, np.diag([1.0, 2.0, 3.0]))

    def test_double_inversion_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.normal(size=3)
            q = quat_of(exp_so3(rng.normal(size=3)))
            var_p = rng.uniform(0.1, 2.0, 3)
            var_t = rng.uniform(0.1, 2.0, 3)
            inv = ui.invert_measurement(
                PoseMeasurement("box", p, q, var_p, var_t))
            # invert once more by hand on the inverted quantities
            rot_back = rot_of(inv.q_oc).T
            p_back = -(rot_back @ inv.p_oc)
            q_back = quat_conj(inv.q_oc)
            cov_back = rot_back @ inv.cov_p @ rot_back.T
            assert_allclose(p_back, p, atol=1e-12)
            assert_allclose(q_back, q, atol=1e-12)
            assert_allclose(cov_back, np.diag(var_p), atol=1e-12)

    def test_rotated_covariance_keeps_spectrum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            var_p = rng.uniform(0.1, 2.0, 3)
            meas = PoseMeasurement("box", rng.normal(size=3),
                                   quat_of(exp_so3(rng.normal(size=3))),
                                   var_p, rng.uniform(0.1, 2.0, 3))
            inv = ui.invert_measurement(meas)
            assert_allclose(np.sort(np.linalg.eigvalsh(inv.cov_p)),
                            np.sort(var_p), atol=1e-10)
            assert_allclose(inv.cov_p, inv.cov_p.T, atol=1e-14)


class TestResidualsAndJacobians:
    def test_consistent_measurement_zero_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_state(rng)
            inv = inverted_consistent(s, 1)
            obj = s.objects[1]
            assert np.max(np.abs(ui.residual_position(s, obj,
                                                      inv))) < 1e-12
            assert np.max(np.abs(ui.residual_rotation(s, obj,
                                                      inv))) < 1e-12

    def test_rotation_noise_leaks_into_inverse_position_residual_only(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 1)
        obj = s.objects[0]
        clean = consistent_measurement(s, 0)
        noisy_rot = PoseMeasurement(
            clean.object_class, clean.p_co.copy(),
            quat_mul(clean.q_co, quat_of(exp_so3([0.05, -0.02, 0.04]))),
            clean.var_p.copy(), clean.var_theta.copy())
        # direct position residual: bit-identical under rotation perturbation
        d0 = direct_residual_position(s, obj, clean)
        d1 = direct_residual_position(s, obj, noisy_rot)
        assert np.array_equal(d0, d1)
        # inverse position residual: perturbed
        i0 = ui.residual_position(s, obj,
                                  ui.invert_measurement(clean))
        i1 = ui.residual_position(s, obj,
                                  ui.invert_measurement(noisy_rot))
        assert np.linalg.norm(i1 - i0) > 1e-3

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            s = random_state(rng)
            idx = int(rng.integers(0, 2))
            inv = inverted_consistent(s, idx)
            h_p, h_r = ui.jacobians(s, idx)
            fd_p = fd_jacobian(lambda stp: ui.residual_position(
                stp, stp.objects[idx], inv), s)
            fd_r = fd_jacobian(lambda stp: ui.residual_rotation(
                stp, stp.objects[idx], inv), s)
            assert np.max(np.abs(h_p - fd_p)) < 1e-5
            assert np.max(np.abs(h_r - fd_r)) < 1e-5

    def test_inverse_position_depends_on_object_rotation_state(self):
        # the direct filter has H_p zero in the object-rotation columns; the
        # inverse filter does not: that is the coupling the reformulation removes
        rng = np.random.default_rng(5)
        s = random_state(rng, 1)
        h_p_inv, _ = ui.jacobians(s, 0)
        from orekf.update_direct import jacobians as direct_jacobians
        h_p_dir, _ = direct_jacobians(s, 0)
        assert_allclose(h_p_dir[:, 24:27], 0.0)
        assert np.max(np.abs(h_p_inv[:, 24:27])) > 1e-3


class TestInverseUpdate:
    def test_partial_verdicts_rejected(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 1)
        with pytest.raises(ValueError):
            ui.build_stacked(s, [(0, consistent_measurement(s, 0))],
                             [GatingDecision(Verdict.REJECT_ROTATION, 0.0)])

    def test_zero_residual_keeps_state(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 1)
        a = rng.normal(size=(27, 27))
        cov = a @ a.T * 1e-4 + np.eye(27) * 1e-6
        stacked = ui.build_stacked(s, [(0, consistent_measurement(s, 0))],
                                   [ACCEPT])
        s2, cov2 = ekf_update(s, cov, stacked)
        assert_allclose(s2.p_wi, s.p_wi, atol=1e-12)
        assert np.trace(cov2) < np.trace(cov)

    def test_reject_all_skips_update(self):
        rng = np.random.default_rng(8)
        s = random_state(rng, 1)
        assert ui.build_stacked(
            s, [(0, consistent_measurement(s, 0))],
            [GatingDecision(Verdict.REJECT_ALL, 0.0)]) is None
