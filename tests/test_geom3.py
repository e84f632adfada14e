from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orekf import geom3
from orekf.geom3 import (
    dR_transpose_sandwich,
    dR_transpose_vector,
    exp_so3,
    log_so3,
    quat_canonical,
    quat_conj,
    quat_exp,
    quat_mul,
    quat_of,
    right_jacobian,
    rot_of,
    skew,
)


@dataclass
class Pose:
    """Rigid transform: translation p and unit quaternion q of frame B in A.
    The tests' reference for composing and inverting transforms."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = quat_canonical(self.q)

    def rot(self) -> np.ndarray:
        return rot_of(self.q)

    def compose(self, other: "Pose") -> "Pose":
        """T_AC = T_AB.compose(T_BC)."""
        return Pose(self.p + self.rot() @ other.p, quat_mul(self.q, other.q))

    def inverse(self) -> "Pose":
        """T_BA, with p_BA = -R_AB^T p_AB."""
        return Pose(-(self.rot().T @ self.p), quat_conj(self.q))

    def as_matrix(self) -> np.ndarray:
        mat = np.eye(4)
        mat[:3, :3] = self.rot()
        mat[:3, 3] = self.p
        return mat


def random_rotation(rng):
    return exp_so3(rng.normal(size=3))


def random_quat(rng):
    return quat_canonical(rng.normal(size=4))


def rodrigues_oracle(theta_vec):
    """Independent Rodrigues evaluation via axis-angle, no shared code path."""
    angle = np.linalg.norm(theta_vec)
    if angle == 0.0:
        return np.eye(3)
    u = np.asarray(theta_vec) / angle
    ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.cos(angle) * np.eye(3) + np.sin(angle) * ux + \
        (1 - np.cos(angle)) * np.outer(u, u)


class TestSkew:
    def test_zero(self):
        assert_allclose(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_definition(self):
        assert_allclose(skew(np.array([1.0, 2.0, 3.0])),
                        [[0, -3, 2], [3, 0, -1], [-2, 1, 0]])

    def test_cross_product_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v, w = rng.normal(size=3), rng.normal(size=3)
            cross = np.array([v[1] * w[2] - v[2] * w[1],
                              v[2] * w[0] - v[0] * w[2],
                              v[0] * w[1] - v[1] * w[0]])
            assert_allclose(skew(v) @ w, cross, atol=1e-14)
            assert_allclose(skew(v) + skew(v).T, np.zeros((3, 3)))


class TestExpLog:
    def test_exp_zero(self):
        assert_allclose(exp_so3(np.zeros(3)), np.eye(3))

    def test_exp_quarter_turn_x(self):
        rot = exp_so3(np.array([np.pi / 2, 0, 0]))
        assert_allclose(rot @ np.array([0, 1, 0]), [0, 0, 1], atol=1e-12)
        assert_allclose(rot, rodrigues_oracle([np.pi / 2, 0, 0]), atol=1e-12)

    def test_exp_matches_rodrigues_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = rng.normal(size=3) * rng.uniform(1e-9, 3.0)
            assert_allclose(exp_so3(t), rodrigues_oracle(t), atol=1e-11)

    def test_log_identity(self):
        assert_allclose(log_so3(np.eye(3)), np.zeros(3))

    def test_log_exp_roundtrip(self):
        assert_allclose(log_so3(exp_so3(np.array([0.1, 0.2, 0.3]))),
                        [0.1, 0.2, 0.3], atol=1e-9)
        rng = np.random.default_rng(3)
        for _ in range(300):
            angle = rng.uniform(1e-8, np.pi - 1e-3)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            t = angle * axis
            assert_allclose(log_so3(exp_so3(t)), t, atol=1e-9)

    def test_log_near_pi(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            angle = rng.uniform(np.pi - 5e-7, np.pi)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            t = log_so3(exp_so3(angle * axis))
            assert abs(np.linalg.norm(t) - angle) < 1e-6
            # axis recovered up to sign
            assert min(np.linalg.norm(t - angle * axis),
                       np.linalg.norm(t + angle * axis)) < 1e-5

    def test_log_pi_about_z(self):
        rot = np.diag([-1.0, -1.0, 1.0])  # exact pi rotation about z
        t = log_so3(rot)
        assert abs(np.linalg.norm(t) - np.pi) < 1e-12
        assert_allclose(np.abs(t / np.pi), [0, 0, 1], atol=1e-12)
        assert t[2] > 0  # lexicographic sign convention: z component nonnegative

    def test_log_principal_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            angle = np.linalg.norm(log_so3(random_rotation(rng)))
            assert 0.0 <= angle <= np.pi + 1e-12


class TestQuaternions:
    def test_identity_element(self):
        rng = np.random.default_rng(6)
        q = random_quat(rng)
        assert_allclose(quat_mul(geom3.QUAT_IDENTITY, q), q, atol=1e-15)

    def test_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = random_quat(rng)
            assert_allclose(quat_mul(q, quat_conj(q)), geom3.QUAT_IDENTITY,
                            atol=1e-12)

    def test_mul_matches_matrix_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = random_quat(rng), random_quat(rng)
            assert_allclose(rot_of(quat_mul(a, b)), rot_of(a) @ rot_of(b),
                            atol=1e-9)

    def test_unit_norm_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            q = quat_mul(random_quat(rng), random_quat(rng))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9

    def test_conj_identity(self):
        assert_allclose(quat_conj(geom3.QUAT_IDENTITY), geom3.QUAT_IDENTITY)

    def test_rot_of_z_quarter_turn(self):
        q = np.array([0, 0, np.sin(np.pi / 4), np.cos(np.pi / 4)])
        assert_allclose(rot_of(q), rodrigues_oracle([0, 0, np.pi / 2]),
                        atol=1e-12)

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            rot = random_rotation(rng)
            assert_allclose(rot_of(quat_of(rot)), rot, atol=1e-9)

    def test_quat_roundtrip_with_sign_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = random_quat(rng)
            assert_allclose(quat_of(rot_of(q)), q, atol=1e-9)

    def test_quat_of_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            quat_of(np.eye(3) * 1.1)
        with pytest.raises(ValueError):
            quat_of(np.diag([1.0, 1.0, -1.0]))  # det -1

    def test_quat_exp_equals_composed_definition(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = rng.normal(size=3) * rng.uniform(0, 3)
            assert_allclose(quat_exp(t), quat_of(exp_so3(t)), atol=1e-12)


class TestInversePosition:
    def test_identity_rotation(self):
        pose = Pose([1.0, 2.0, 3.0], geom3.QUAT_IDENTITY)
        assert_allclose(pose.inverse().p, [-1, -2, -3])

    def test_z_quarter_turn(self):
        pose = Pose([1.0, 0, 0], quat_of(rodrigues_oracle([0, 0, np.pi / 2])))
        assert_allclose(pose.inverse().p, [0, 1, 0], atol=1e-12)

    def test_pose_compose_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pose = Pose(rng.normal(size=3), random_quat(rng))
            ident = pose.compose(pose.inverse())
            assert_allclose(ident.p, np.zeros(3), atol=1e-12)
            assert_allclose(ident.q, geom3.QUAT_IDENTITY, atol=1e-12)

    def test_pose_matches_homogeneous_inverse(self):
        rng = np.random.default_rng(14)
        pose = Pose(rng.normal(size=3), random_quat(rng))
        assert_allclose(pose.inverse().as_matrix(),
                        np.linalg.inv(pose.as_matrix()), atol=1e-12)


class TestRightJacobian:
    def test_zero(self):
        assert_allclose(right_jacobian(np.zeros(3)), np.eye(3))

    def test_defining_property(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            t = rng.normal(size=3)
            d = rng.normal(size=3) * 1e-6
            lhs = exp_so3(t + d)
            rhs = exp_so3(t) @ exp_so3(right_jacobian(t) @ d)
            # defect must be o(|d|): quadratic in the step
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            t = rng.normal(size=3)
            assert_allclose(right_jacobian(t), right_jacobian(-t).T, atol=1e-12)


def central_diff_rotation_expr(expr, base_rot, step=1e-6):
    """FD of an SO(3)-valued expression w.r.t. a right perturbation of base_rot,
    measured as log of the right difference."""
    jac = np.zeros((3, 3))
    for k in range(3):
        d = np.zeros(3)
        d[k] = step
        plus = expr(base_rot @ exp_so3(d))
        minus = expr(base_rot @ exp_so3(-d))
        center = expr(base_rot)
        jac[:, k] = (log_so3(center.T @ plus) - log_so3(center.T @ minus)) / (2 * step)
    return jac


def central_diff_vector_expr(expr, base_rot, step=1e-6):
    jac = np.zeros((3, 3))
    for k in range(3):
        d = np.zeros(3)
        d[k] = step
        jac[:, k] = (expr(base_rot @ exp_so3(d)) - expr(base_rot @ exp_so3(-d))) / (2 * step)
    return jac


class TestDerivativeRules:
    def test_sandwich_identity_case(self):
        assert_allclose(dR_transpose_sandwich(np.eye(3), np.eye(3), np.eye(3)),
                        -np.eye(3))

    def test_sandwich_reduction_s_equals_r(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rot = random_rotation(rng)
            assert_allclose(dR_transpose_sandwich(np.eye(3), rot, rot),
                            -np.eye(3), atol=1e-12)

    def test_sandwich_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            q, r, s = (random_rotation(rng) for _ in range(3))
            fd = central_diff_rotation_expr(lambda rr: q @ rr.T @ s, r)
            assert np.max(np.abs(fd - dR_transpose_sandwich(q, r, s))) < 1e-5

    def test_vector_rule_trivials(self):
        v = np.array([1.0, 0.0, 0.0])
        assert_allclose(dR_transpose_vector(np.eye(3), np.eye(3), v), skew(v))
        rng = np.random.default_rng(19)
        assert_allclose(
            dR_transpose_vector(random_rotation(rng), random_rotation(rng),
                                np.zeros(3)),
            np.zeros((3, 3)))

    def test_vector_rule_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            q, r = random_rotation(rng), random_rotation(rng)
            v = rng.normal(size=3)
            fd = central_diff_vector_expr(lambda rr: q @ rr.T @ v, r)
            assert np.max(np.abs(fd - dR_transpose_vector(q, r, v))) < 1e-5

    def test_adjoint_equality(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            rot = random_rotation(rng)
            t = rng.normal(size=3)
            assert_allclose(exp_so3(rot @ t), rot @ exp_so3(t) @ rot.T,
                            atol=1e-9)
