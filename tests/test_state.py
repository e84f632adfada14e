import numpy as np
import pytest
from numpy.testing import assert_allclose

from orekf import state as st
from orekf.geom3 import QUAT_IDENTITY, exp_so3, quat_of, rot_of, skew
from orekf.state import (
    CoreState,
    Extrinsics,
    FullState,
    ObjectState,
    add_object,
    inject_error,
)


def identity_state(n_objects=0):
    core = CoreState(np.zeros(3), np.zeros(3), QUAT_IDENTITY.copy(),
                     np.zeros(3), np.zeros(3))
    extr = Extrinsics(np.zeros(3), QUAT_IDENTITY.copy())
    objects = [
        ObjectState("box", np.array([1.0 + i, 0.0, 0.0]),
                    QUAT_IDENTITY.copy())
        for i in range(n_objects)
    ]
    return FullState(core, extr, objects)


def random_state(rng, n_objects=2):
    core = CoreState(rng.normal(size=3), rng.normal(size=3),
                     quat_of(exp_so3(rng.normal(size=3))),
                     0.01 * rng.normal(size=3), 0.01 * rng.normal(size=3))
    extr = Extrinsics(0.1 * rng.normal(size=3),
                      quat_of(exp_so3(0.2 * rng.normal(size=3))))
    objects = [
        ObjectState("box", rng.normal(size=3) + np.array([2.0, 0, 0]),
                    quat_of(exp_so3(rng.normal(size=3))))
        for i in range(n_objects)
    ]
    return FullState(core, extr, objects)


class TestInjectError:
    def test_zero_is_noop(self):
        s = identity_state(2)
        out = inject_error(s, np.zeros(s.error_dim))
        assert_allclose(out.core.p_wi, s.core.p_wi)
        assert_allclose(out.core.q_wi, s.core.q_wi)
        assert_allclose(out.objects[1].p_wo, s.objects[1].p_wo)

    def test_position_shift_only(self):
        s = identity_state(1)
        dx = np.zeros(s.error_dim)
        dx[0] = 1.0
        out = inject_error(s, dx)
        assert_allclose(out.core.p_wi, [1, 0, 0])
        assert_allclose(out.core.v_wi, s.core.v_wi)
        assert_allclose(out.core.q_wi, s.core.q_wi)
        assert_allclose(out.objects[0].p_wo, s.objects[0].p_wo)

    def test_attitude_injection_matches_exp(self):
        s = identity_state()
        dx = np.zeros(s.error_dim)
        dx[6:9] = [0, 0, np.pi / 2]
        out = inject_error(s, dx)
        assert_allclose(rot_of(out.core.q_wi),
                        exp_so3(np.array([0, 0, np.pi / 2])), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inject_error(identity_state(1), np.zeros(21))

    def test_first_order_composition(self):
        rng = np.random.default_rng(0)
        s = random_state(rng)
        for _ in range(20):
            scale = 1e-3
            d1 = rng.normal(size=s.error_dim) * scale
            d2 = rng.normal(size=s.error_dim) * scale
            joint = inject_error(s, d1 + d2)
            seq = inject_error(inject_error(s, d1), d2)
            # difference must be second order in the perturbation size
            assert np.linalg.norm(joint.core.p_wi - seq.core.p_wi) < 10 * scale**2
            assert np.linalg.norm(joint.core.q_wi - seq.core.q_wi) < 10 * scale**2
            assert np.linalg.norm(joint.objects[1].q_wo - seq.objects[1].q_wo) \
                < 10 * scale**2


class TestAddObject:
    def test_first_object_becomes_anchor(self):
        s = identity_state()
        cov = np.eye(21) * 1e-6
        obj = ObjectState("mug", np.array([1.0, 0, 0]), QUAT_IDENTITY.copy())
        s2, cov2 = add_object(s, cov, obj, np.eye(6) * 1e-4)
        s3, _ = add_object(s2, cov2, ObjectState("box", np.ones(3),
                                                 QUAT_IDENTITY.copy()),
                           np.eye(6) * 1e-4)
        # objects are appended: the first one added stays object 0
        assert [o.obj_class for o in s3.objects] == ["mug", "box"]

    def test_dimension_growth(self):
        s = identity_state()
        cov = np.eye(21) * 1e-6
        obj = ObjectState("mug", np.array([1.0, 0, 0]), QUAT_IDENTITY.copy())
        s2, cov2 = add_object(s, cov, obj, np.eye(6))
        assert s2.error_dim == 27
        assert cov2.shape == (27, 27)

    def test_cross_covariance_chain_rule_identity_robot(self):
        # hand-derived init Jacobian for an identity-pose robot/extrinsics:
        # dp_wo  = dp_wi - [p_co]x dtheta_wi + dp_ic - [p_co]x dtheta_ic + n_p
        # dth_wo = R_co^T (dtheta_wi + dtheta_ic) - n_th ; here R_co = I
        rng = np.random.default_rng(1)
        a = rng.normal(size=(21, 21))
        cov = a @ a.T * 1e-4
        s = identity_state()
        p_wo = np.array([1.5, -0.2, 0.3])
        obj = ObjectState("mug", p_wo, QUAT_IDENTITY.copy())
        meas_cov = np.diag(rng.uniform(0.01, 0.02, size=6))
        _, cov2 = add_object(s, cov, obj, meas_cov)

        h = np.zeros((6, 21))
        h[0:3, 0:3] = np.eye(3)
        h[0:3, 6:9] = -skew(p_wo)
        h[0:3, 15:18] = np.eye(3)
        h[0:3, 18:21] = -skew(p_wo)
        h[3:6, 6:9] = np.eye(3)
        h[3:6, 18:21] = np.eye(3)
        assert_allclose(cov2[21:, :21], h @ cov, atol=1e-12)
        assert_allclose(cov2[21:, 21:], h @ cov @ h.T + meas_cov, atol=1e-12)

    def test_new_block_psd(self):
        rng = np.random.default_rng(2)
        s = random_state(rng, n_objects=0)
        a = rng.normal(size=(21, 21))
        cov = a @ a.T * 1e-3
        obj = ObjectState("box", rng.normal(size=3), quat_of(exp_so3(rng.normal(size=3))))
        _, cov2 = add_object(s, cov, obj, np.diag(rng.uniform(1e-4, 1e-2, 6)))
        assert np.min(np.linalg.eigvalsh(cov2)) > -1e-9
        assert_allclose(cov2, cov2.T, atol=1e-12)


class TestAnchorMask:
    def test_single_object(self):
        assert list(range(27))[st.ANCHOR] == list(range(21, 27))
