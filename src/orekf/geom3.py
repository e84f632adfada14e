"""SO(3) / unit-quaternion algebra used throughout the filter.

Conventions:
  * Quaternions are Hamilton, scalar-last: q = [qx, qy, qz, qw].
  * The double cover is resolved by qw >= 0 at construction (qw == 0 broken
    by the first nonzero component positive).
  * Rotation error states are right perturbations: R_true = R_est @ exp_so3(dtheta).
"""

from __future__ import annotations

import math

import numpy as np

# Below this angle the closed forms switch to Taylor series.
SMALL_ANGLE = 1e-7

_I3 = np.eye(3)

QUAT_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def _floats(v) -> list:
    """The components of a short vector as Python floats, which the scalar
    helpers below compute with."""
    return np.asarray(v, dtype=float).tolist()


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix so that skew(v) @ w == cross(v, w)."""
    x, y, z = v
    out = np.zeros((3, 3))
    out[0, 1] = -z
    out[0, 2] = y
    out[1, 0] = z
    out[1, 2] = -x
    out[2, 0] = -y
    out[2, 1] = x
    return out


def exp_so3_batch(rotvecs: np.ndarray) -> np.ndarray:
    """Rodrigues formula over the leading axes of (..., 3) rotation vectors."""
    angle = np.linalg.norm(rotvecs, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    s = np.where(small, 1.0, np.sin(safe) / safe)
    c = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    k = np.zeros(rotvecs.shape + (3,))
    x, y, z = rotvecs[..., 0], rotvecs[..., 1], rotvecs[..., 2]
    k[..., 0, 1] = -z
    k[..., 0, 2] = y
    k[..., 1, 0] = z
    k[..., 1, 2] = -x
    k[..., 2, 0] = -y
    k[..., 2, 1] = x
    kk = k @ k
    return (np.eye(3) + s[..., None, None] * k
            + c[..., None, None] * kk)


def exp_so3(theta_vec: np.ndarray) -> np.ndarray:
    """Rotation matrix from a rotation vector (Rodrigues formula)."""
    return exp_so3_batch(np.asarray(theta_vec, dtype=float)[None])[0]


def log_so3(rot: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix, principal value in [0, pi].

    Near pi the axis is recovered from the diagonal of (R + I)/2, which stays
    well conditioned where the antisymmetric part vanishes. The axis sign at
    exactly pi is fixed by making the first nonzero component in (z, y, x)
    order positive.
    """
    trace = float(np.trace(rot))
    cos_angle = min(1.0, max(-1.0, 0.5 * (trace - 1.0)))
    angle = float(np.arccos(cos_angle))
    antisym = 0.5 * np.array([
        rot[2, 1] - rot[1, 2],
        rot[0, 2] - rot[2, 0],
        rot[1, 0] - rot[0, 1],
    ])
    if angle < SMALL_ANGLE:
        return antisym
    if np.pi - angle < 1e-6:
        # axis from the dominant diagonal entry of (R + I)/2 = axis axis^T near pi
        outer = 0.5 * (rot + _I3)
        i = int(np.argmax(np.diag(outer)))
        axis = outer[:, i] / np.sqrt(max(outer[i, i], np.finfo(float).tiny))
        axis = axis / np.linalg.norm(axis)
        # keep continuity with the sin-based branch when sin(angle) is not yet 0
        if np.dot(axis, antisym) < 0.0:
            axis = -axis
        elif np.dot(axis, antisym) == 0.0:
            for c in (axis[2], axis[1], axis[0]):
                if c != 0.0:
                    if c < 0.0:
                        axis = -axis
                    break
        return angle * axis
    return (angle / np.sin(angle)) * antisym


def log_so3_batch(rots: np.ndarray) -> np.ndarray:
    """log_so3 of each matrix of a (K, 3, 3) stack, as a (K, 3) array.

    The closed form runs on the whole stack; the rare matrices within 1e-6
    rad of pi go through log_so3 one by one.
    """
    trace = rots[:, 0, 0] + rots[:, 1, 1] + rots[:, 2, 2]
    angle = np.arccos(np.clip(0.5 * (trace - 1.0), -1.0, 1.0))
    out = 0.5 * np.stack([rots[:, 2, 1] - rots[:, 1, 2],
                          rots[:, 0, 2] - rots[:, 2, 0],
                          rots[:, 1, 0] - rots[:, 0, 1]], axis=1)
    big = angle >= SMALL_ANGLE
    out[big] *= (angle[big] / np.sin(angle[big]))[:, None]
    for k in np.flatnonzero(np.pi - angle < 1e-6):
        out[k] = log_so3(rots[k])
    return out


def right_jacobian(theta_vec: np.ndarray) -> np.ndarray:
    """Right Jacobian of SO(3): exp_so3(t + d) ~ exp_so3(t) @ exp_so3(J_r(t) d)."""
    theta_vec = np.asarray(theta_vec, dtype=float)
    angle = float(np.linalg.norm(theta_vec))
    k = skew(theta_vec)
    if angle < SMALL_ANGLE:
        return _I3 - 0.5 * k + (k @ k) / 6.0
    a2 = angle * angle
    c1 = (1.0 - np.cos(angle)) / a2
    c2 = (angle - np.sin(angle)) / (a2 * angle)
    return _I3 - c1 * k + c2 * (k @ k)


def quat_canonical_components(q) -> tuple:
    """quat_canonical of a quaternion given as four Python floats, as a
    tuple of floats; the array forms below wrap these scalar forms."""
    x, y, z, w = q
    n = math.sqrt(x * x + y * y + z * z + w * w)
    if abs(n - 1.0) > 1e-12:
        # skipping the division when already unit keeps canonicalization
        # idempotent at the bit level (replay logs rely on this)
        x, y, z, w = x / n, y / n, z / n, w / n
    flip = w < 0.0
    if w == 0.0:
        for c in (x, y, z):
            if c != 0.0:
                flip = c < 0.0
                break
    if flip:
        return -x, -y, -z, -w
    return x, y, z, w


def quat_mul_components(a, b) -> tuple:
    """quat_mul of two quaternions given as four Python floats each."""
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    return quat_canonical_components((
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
        aw * bw - ax * bx - ay * by - az * bz,
    ))


def quat_conj_components(q) -> tuple:
    """quat_conj of a quaternion given as four Python floats."""
    x, y, z, w = q
    return quat_canonical_components((-x, -y, -z, w))


def quat_exp_components(v) -> tuple:
    """quat_exp of a rotation vector given as three Python floats."""
    x, y, z = v
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < SMALL_ANGLE:
        return quat_canonical_components((0.5 * x, 0.5 * y, 0.5 * z, 1.0))
    s = math.sin(0.5 * angle) / angle
    return quat_canonical_components((x * s, y * s, z * s,
                                      math.cos(0.5 * angle)))


def _quat(components) -> np.ndarray:
    out = np.empty(4)
    out[0], out[1], out[2], out[3] = components
    return out


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Normalize and fix the sign so qw >= 0 (ties broken lexicographically)."""
    return _quat(quat_canonical_components(_floats(q)))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b, scalar-last, canonicalized output."""
    return _quat(quat_mul_components(_floats(a), _floats(b)))


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Conjugate (= inverse for unit quaternions)."""
    return _quat(quat_conj_components(_floats(q)))


def rot_of(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion."""
    x, y, z, w = _floats(q)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    out = np.empty((3, 3))
    out[0, 0] = 1.0 - 2.0 * (yy + zz)
    out[0, 1] = 2.0 * (xy - wz)
    out[0, 2] = 2.0 * (xz + wy)
    out[1, 0] = 2.0 * (xy + wz)
    out[1, 1] = 1.0 - 2.0 * (xx + zz)
    out[1, 2] = 2.0 * (yz - wx)
    out[2, 0] = 2.0 * (xz - wy)
    out[2, 1] = 2.0 * (yz + wx)
    out[2, 2] = 1.0 - 2.0 * (xx + yy)
    return out


def rot_of_batch(q: np.ndarray) -> np.ndarray:
    """rot_of of each row of a (K, 4) array of unit quaternions, as a
    (K, 3, 3) array; the arithmetic is rot_of's, element for element."""
    x, y, z, w = np.asarray(q, dtype=float).T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    out = np.empty((len(x), 3, 3))
    out[:, 0, 0] = 1.0 - 2.0 * (yy + zz)
    out[:, 0, 1] = 2.0 * (xy - wz)
    out[:, 0, 2] = 2.0 * (xz + wy)
    out[:, 1, 0] = 2.0 * (xy + wz)
    out[:, 1, 1] = 1.0 - 2.0 * (xx + zz)
    out[:, 1, 2] = 2.0 * (yz - wx)
    out[:, 2, 0] = 2.0 * (xz - wy)
    out[:, 2, 1] = 2.0 * (yz + wx)
    out[:, 2, 2] = 1.0 - 2.0 * (xx + yy)
    return out


def quat_of_batch(rots: np.ndarray) -> np.ndarray:
    """Scalar-last quaternions of a stack of rotation matrices, qw >= 0.

    Branch-free Shepperd: evaluate all four candidate formulations and keep
    the best-conditioned one per element.
    """
    r = rots
    t = np.einsum("...ii->...", r)
    cand = np.empty(r.shape[:-2] + (4, 4))
    # candidate 0: trace
    cand[..., 0, 3] = 1.0 + t
    cand[..., 0, 0] = r[..., 2, 1] - r[..., 1, 2]
    cand[..., 0, 1] = r[..., 0, 2] - r[..., 2, 0]
    cand[..., 0, 2] = r[..., 1, 0] - r[..., 0, 1]
    # candidates 1..3: dominant diagonal element a
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        cand[..., 1 + a, a] = 1.0 + r[..., a, a] - r[..., b, b] - r[..., c, c]
        cand[..., 1 + a, b] = r[..., b, a] + r[..., a, b]
        cand[..., 1 + a, c] = r[..., c, a] + r[..., a, c]
        cand[..., 1 + a, 3] = r[..., c, b] - r[..., b, c]
    scores = np.stack([1.0 + t, 1.0 + r[..., 0, 0] - r[..., 1, 1] - r[..., 2, 2],
                       1.0 + r[..., 1, 1] - r[..., 0, 0] - r[..., 2, 2],
                       1.0 + r[..., 2, 2] - r[..., 0, 0] - r[..., 1, 1]],
                      axis=-1)
    best = np.argmax(scores, axis=-1)
    q = np.take_along_axis(cand, best[..., None, None].repeat(4, axis=-1),
                           axis=-2)[..., 0, :]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    flip = q[..., 3] < 0
    q[flip] = -q[flip]
    return q


def quat_of(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method).

    Raises ValueError if the input is not orthonormal with determinant +1.
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise ValueError("rotation matrix must be 3x3")
    if not np.allclose(rot.T @ rot, _I3, atol=1e-6) or np.linalg.det(rot) < 0.0:
        raise ValueError("matrix is not a rotation (orthonormality check failed)")
    return quat_canonical(quat_of_batch(rot[None])[0])


def quat_exp(theta_vec: np.ndarray) -> np.ndarray:
    """Quaternion of a rotation vector; equals quat_of(exp_so3(theta_vec))."""
    return _quat(quat_exp_components(_floats(theta_vec)))


def dR_transpose_sandwich(q_rot: np.ndarray, r_rot: np.ndarray,
                          s_rot: np.ndarray) -> np.ndarray:
    """Derivative of the rotation-valued expression Q R^T S w.r.t. a right
    perturbation of R, measured as a right tangent of the result: -S^T R."""
    return -(np.asarray(s_rot).T @ np.asarray(r_rot))


def dR_transpose_vector(q_rot: np.ndarray, r_rot: np.ndarray,
                        v: np.ndarray) -> np.ndarray:
    """Derivative of Q R^T v w.r.t. a right perturbation of R: Q [R^T v]x."""
    return np.asarray(q_rot) @ skew(np.asarray(r_rot).T @ np.asarray(v, dtype=float))
