import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from numpy.testing import assert_allclose

from orekf import state as st
from orekf.geom3 import QUAT_IDENTITY, SMALL_ANGLE, exp_so3, quat_exp, \
    quat_mul, quat_of, rot_of, skew
from orekf.propagation import ImuNoise, propagate_batch
from orekf.state import (
    FullState,
    ObjectState,
    add_object,
    inject_error,
)


def identity_state(n_objects=0):
    objects = [
        ObjectState("box", np.array([1.0 + i, 0.0, 0.0]), QUAT_IDENTITY)
        for i in range(n_objects)
    ]
    return FullState.from_parts(np.zeros(3), np.zeros(3), QUAT_IDENTITY,
                                np.zeros(3), np.zeros(3), np.zeros(3),
                                QUAT_IDENTITY, objects)


def random_state(rng, n_objects=2):
    return FullState.from_parts(
        rng.normal(size=3), rng.normal(size=3),
        quat_of(exp_so3(rng.normal(size=3))), 0.01 * rng.normal(size=3),
        0.01 * rng.normal(size=3), 0.1 * rng.normal(size=3),
        quat_of(exp_so3(0.2 * rng.normal(size=3))),
        [ObjectState("box", rng.normal(size=3) + np.array([2.0, 0, 0]),
                     quat_of(exp_so3(rng.normal(size=3))))
         for i in range(n_objects)])


class TestInjectError:
    def test_zero_is_noop(self):
        s = identity_state(2)
        out = inject_error(s, np.zeros(s.error_dim))
        assert_allclose(out.p_wi, s.p_wi)
        assert_allclose(out.q_wi, s.q_wi)
        assert_allclose(out.objects[1].p_wo, s.objects[1].p_wo)

    def test_position_shift_only(self):
        s = identity_state(1)
        dx = np.zeros(s.error_dim)
        dx[0] = 1.0
        out = inject_error(s, dx)
        assert_allclose(out.p_wi, [1, 0, 0])
        assert_allclose(out.v_wi, s.v_wi)
        assert_allclose(out.q_wi, s.q_wi)
        assert_allclose(out.objects[0].p_wo, s.objects[0].p_wo)

    def test_attitude_injection_matches_exp(self):
        s = identity_state()
        dx = np.zeros(s.error_dim)
        dx[6:9] = [0, 0, np.pi / 2]
        out = inject_error(s, dx)
        assert_allclose(rot_of(out.q_wi),
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
            assert np.linalg.norm(joint.p_wi - seq.p_wi) < 10 * scale**2
            assert np.linalg.norm(joint.q_wi - seq.q_wi) < 10 * scale**2
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


def perturbed(q, dtheta):
    """The quaternion injection of the per-part state: a new array, a copy
    of q when the block is exactly zero."""
    if dtheta[0] == 0.0 and dtheta[1] == 0.0 and dtheta[2] == 0.0:
        return q.copy()
    return quat_mul(q, quat_exp(dtheta))


def inject_error_by_parts(state, dx):
    """The boxplus as the per-part state (core, extrinsics, objects) wrote
    it, one new array per block; the blocks in nominal order."""
    parts = [state.p_wi + dx[st.POS], state.v_wi + dx[st.VEL],
             perturbed(state.q_wi, dx[st.ATT]), state.bias_gyro + dx[st.BG],
             state.bias_accel + dx[st.BA], state.p_ic + dx[st.P_IC],
             perturbed(state.q_ic, dx[st.ATT_IC])]
    for i, obj in enumerate(state.objects):
        parts += [obj.p_wo + dx[st.obj_pos_slice(i)],
                  perturbed(obj.q_wo, dx[st.obj_att_slice(i)])]
    return np.concatenate(parts)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# error blocks that are exactly zero, below the small-angle threshold, or
# large
_BLOCK = hs.one_of(
    hs.just((0.0, 0.0, 0.0)),
    hs.tuples(*[hs.floats(-SMALL_ANGLE / 2, SMALL_ANGLE / 2)] * 3),
    hs.tuples(*[hs.floats(-4.0, 4.0)] * 3))


@hs.composite
def states_and_errors(draw, min_objects=0, block=_BLOCK):
    n = draw(hs.integers(min_objects, 5), label="objects")
    state = random_state(np.random.default_rng(draw(hs.integers(0, 2**32))),
                         n)
    dx = draw(hs.lists(block, min_size=7 + 2 * n, max_size=7 + 2 * n))
    return state, np.ravel(dx)


class TestVectorState:
    def test_views_are_the_layout(self):
        objects = [ObjectState("box", np.array([1.0, 2, 3]), QUAT_IDENTITY),
                   ObjectState("mug", np.array([4.0, 5, 6]), QUAT_IDENTITY)]
        parts = {"p_wi": np.full(3, 1.0), "v_wi": np.full(3, 2.0),
                 "q_wi": np.array([0.0, 0, 0.6, 0.8]),
                 "bias_gyro": np.full(3, 3.0), "bias_accel": np.full(3, 4.0),
                 "p_ic": np.full(3, 5.0), "q_ic": np.array([0.6, 0, 0, 0.8])}
        s = FullState.from_parts(*parts.values(), objects)
        assert len(s.x) == st.BASE_LEN + 14 and s.classes == ("box", "mug")
        assert s.error_dim == st.BASE_DIM + 12
        assert same_bits(s.x[:st.BASE_LEN],
                         np.concatenate(list(parts.values())))
        for name, value in parts.items():
            assert np.shares_memory(getattr(s, name), s.x)
            assert same_bits(getattr(s, name), value)
        assert_allclose(s.x[s.x.size - 7:], [4, 5, 6, 0, 0, 0, 1])
        got = s.objects
        assert [o.obj_class for o in got] == ["box", "mug"]
        assert np.shares_memory(got[1].q_wo, s.x)
        objects[0].p_wo[0] = 9.0            # the state holds its own copy
        assert s.objects[0].p_wo[0] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(states_and_errors(block=_BLOCK | hs.sampled_from(
        [(-0.0, 0.0, -0.0), (np.nan, 0.0, 0.0), (0.0, 0.0, 1e-300)])))
    def test_inject_error_equals_the_per_part_boxplus(self, case):
        state, dx = case
        x = state.x.copy()
        out = inject_error(state, dx)
        assert same_bits(out.x, inject_error_by_parts(state, dx))
        assert out.classes == state.classes
        assert same_bits(state.x, x)        # the input is left alone

    @settings(max_examples=100, deadline=None)
    @given(states_and_errors(min_objects=1))
    def test_anchor_stays_bit_identical(self, case):
        state, dx = case
        dx[st.ANCHOR] = 0.0
        out = inject_error(state, dx)
        anchor = slice(st.BASE_LEN, st.BASE_LEN + 7)
        assert same_bits(out.x[anchor], state.x[anchor])

    @settings(max_examples=60, deadline=None)
    @given(hs.integers(0, 5), hs.integers(1, 3), hs.integers(1, 5),
           hs.integers(0, 2**32))
    def test_propagation_moves_only_position_velocity_attitude(
            self, n_objects, runs, steps, seed):
        rng = np.random.default_rng(seed)
        states = [random_state(rng, n_objects) for _ in range(runs)]
        dim = states[0].error_dim
        covs = np.stack([np.eye(dim) * 1e-4] * runs)
        acc = [rng.normal(size=(steps, 3)) + [0, 0, 9.81]
               for _ in range(runs)]
        gyro = [rng.normal(size=(steps, 3)) for _ in range(runs)]
        noise = ImuNoise()
        if runs == 1:
            out = [propagate_batch(states[0], covs[0], acc[0], gyro[0],
                                   0.005, noise)[0]]
        else:
            out, _ = propagate_batch(states, covs, acc, gyro, 0.005, noise)
        for before, after in zip(states, out):
            assert same_bits(after.x[10:], before.x[10:])
            assert after.classes == before.classes
