from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orekf import state as st
from orekf.geom3 import (
    QUAT_IDENTITY,
    exp_so3,
    log_so3,
    quat_exp,
    quat_mul,
    quat_of,
    rot_of,
    skew,
)
from orekf.propagation import MAX_DT, ImuNoise, propagate_batch
from orekf.state import CoreState, Extrinsics, FullState, ObjectState

G = np.array([0.0, 0.0, 9.81])


@dataclass
class ImuSample:
    """One IMU reading, the input of the single-step reference below."""

    t: float
    acc: np.ndarray
    gyro: np.ndarray


def propagate(state: FullState, cov: np.ndarray, sample: ImuSample,
              dt: float, noise: ImuNoise):
    """One strapdown step from the bias-corrected sample over dt.

    The nominal state integrates at second order (midpoint attitude for the
    velocity increment, trapezoid for position, exact exponential on the
    attitude); the covariance uses the first-order discretized error-state
    transition. Object and extrinsic blocks are static with zero process
    noise. The sample is treated as the rates over the interval, so feed
    midpoint-representative values for best accuracy. This single-step form
    is the reference that propagate_batch must match.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt={dt} outside (0, {MAX_DT}]")
    core = state.core
    w = sample.gyro - core.bias_gyro
    a_body = sample.acc - core.bias_accel

    rot0 = rot_of(core.q_wi)
    rot_mid = rot0 @ rot_of(quat_exp(w * (0.5 * dt)))
    a_world = rot_mid @ a_body - noise.gravity

    v_new = core.v_wi + a_world * dt
    p_new = core.p_wi + 0.5 * (core.v_wi + v_new) * dt
    q_new = quat_mul(core.q_wi, quat_exp(w * dt))

    new_core = CoreState(p_new, v_new, q_new, core.bias_gyro.copy(),
                         core.bias_accel.copy())
    new_state = FullState(new_core, state.extr.copy(),
                          [o.copy() for o in state.objects])

    # first-order discrete transition of the 15-dim core error block
    f = np.eye(st.CORE_DIM)
    f[st.POS, st.VEL] = dt * np.eye(3)
    f[st.VEL, st.ATT] = -rot0 @ skew(a_body) * dt
    f[st.VEL, st.BA] = -rot0 * dt
    f[st.ATT, st.ATT] = np.eye(3) - skew(w) * dt
    f[st.ATT, st.BG] = -np.eye(3) * dt

    q_d = np.zeros(st.CORE_DIM)
    q_d[st.VEL] = noise.sigma_acc**2 * dt
    q_d[st.ATT] = noise.sigma_gyro**2 * dt
    q_d[st.BG] = noise.sigma_gyro_bias**2 * dt
    q_d[st.BA] = noise.sigma_accel_bias**2 * dt

    new_cov = np.empty_like(cov)
    new_cov[: st.CORE_DIM, :] = f @ cov[: st.CORE_DIM, :]
    new_cov[st.CORE_DIM:, :] = cov[st.CORE_DIM:, :]
    new_cov[:, : st.CORE_DIM] = new_cov[:, : st.CORE_DIM] @ f.T
    new_cov[np.arange(st.CORE_DIM), np.arange(st.CORE_DIM)] += q_d
    return new_state, st.symmetrize(new_cov)


def rest_state():
    core = CoreState(np.zeros(3), np.zeros(3), QUAT_IDENTITY.copy(),
                     np.zeros(3), np.zeros(3))
    return FullState(core, Extrinsics(np.zeros(3), QUAT_IDENTITY.copy()), [])


def quiet_noise():
    return ImuNoise(0.0, 0.0, 0.0, 0.0, G)


def test_hover_equilibrium():
    s = rest_state()
    cov = np.eye(21) * 1e-9
    for _ in range(200):
        s, cov = propagate(s, cov, ImuSample(0.0, G.copy(), np.zeros(3)),
                           1 / 200, quiet_noise())
    assert np.max(np.abs(s.core.p_wi)) < 1e-12
    assert np.max(np.abs(s.core.v_wi)) < 1e-12
    assert_allclose(s.core.q_wi, QUAT_IDENTITY, atol=1e-12)


def test_constant_acceleration_kinematics():
    s = rest_state()
    cov = np.eye(21) * 1e-9
    a_m = np.array([1.0, 0.0, 0.0]) + G
    for _ in range(200):
        s, cov = propagate(s, cov, ImuSample(0.0, a_m, np.zeros(3)), 1 / 200,
                           quiet_noise())
    assert_allclose(s.core.v_wi, [1.0, 0, 0], atol=1e-3)
    assert_allclose(s.core.p_wi, [0.5, 0, 0], atol=1e-3)


def test_pure_rotation_yaw():
    s = rest_state()
    cov = np.eye(21) * 1e-9
    w = np.array([0.0, 0.0, np.pi / 2])
    for k in range(200):
        # gravity reading follows the current attitude
        a_m = rot_of(s.core.q_wi).T @ G
        s, cov = propagate(s, cov, ImuSample(0.0, a_m, w), 1 / 200,
                           quiet_noise())
    yaw = log_so3(rot_of(s.core.q_wi))
    assert_allclose(yaw, [0, 0, np.pi / 2], atol=1e-6)


def test_dt_validation():
    s = rest_state()
    cov = np.eye(21)
    with pytest.raises(ValueError):
        propagate(s, cov, ImuSample(0.0, G, np.zeros(3)), 0.0, quiet_noise())
    with pytest.raises(ValueError):
        propagate(s, cov, ImuSample(0.0, G, np.zeros(3)), 0.2, quiet_noise())


def test_quaternion_norm_over_1e6_steps():
    # one million propagation steps through the production batch path
    rng = np.random.default_rng(3)
    s = rest_state()
    cov = np.eye(21) * 1e-9
    noise = ImuNoise(gravity=G)
    worst = 0.0
    batch = 200
    k_arr = np.arange(batch)
    for chunk in range(5000):
        base = chunk * batch
        acc = G + 0.1 * np.sin(0.01 * (base + k_arr))[:, None] * np.ones(3)
        gyro = 0.3 * np.stack([np.sin(0.003 * (base + k_arr)),
                               np.cos(0.002 * (base + k_arr)),
                               np.sin(0.001 * (base + k_arr))], axis=1)
        s, cov = propagate_batch(s, cov, acc, gyro, 1 / 200, noise)
        worst = max(worst, abs(np.linalg.norm(s.core.q_wi) - 1.0))
    assert worst < 1e-9


def test_quaternion_norm_single_step_path():
    s = rest_state()
    cov = np.eye(21) * 1e-9
    noise = ImuNoise(gravity=G)
    for k in range(20_000):
        a_m = rot_of(s.core.q_wi).T @ G + 0.1 * np.sin(0.01 * k) * np.ones(3)
        w = 0.3 * np.array([np.sin(0.003 * k), np.cos(0.002 * k),
                            np.sin(0.001 * k)])
        s, cov = propagate(s, cov, ImuSample(0.0, a_m, w), 1 / 200, noise)
    assert abs(np.linalg.norm(s.core.q_wi) - 1.0) < 1e-9


def test_trace_nondecreasing():
    s = rest_state()
    cov = np.eye(21) * 1e-6
    noise = ImuNoise(0.02, 0.002, 5e-4, 5e-5, G)
    prev = np.trace(cov)
    for _ in range(500):
        s, cov = propagate(s, cov, ImuSample(0.0, G.copy(), np.zeros(3)),
                           1 / 200, noise)
        tr = np.trace(cov)
        assert tr >= prev - 1e-15
        prev = tr


def test_batch_matches_repeated_single_steps():
    rng = np.random.default_rng(17)
    core = CoreState(rng.normal(size=3), rng.normal(size=3),
                     quat_of(exp_so3(rng.normal(size=3))),
                     0.01 * rng.normal(size=3), 0.01 * rng.normal(size=3))
    s = FullState(core, Extrinsics(np.zeros(3), QUAT_IDENTITY.copy()),
                  [ObjectState("box", rng.normal(size=3),
                               QUAT_IDENTITY.copy())])
    a = rng.normal(size=(27, 27))
    cov = a @ a.T * 1e-4
    noise = ImuNoise()
    acc = rng.normal(size=(10, 3)) * 0.5 + G
    gyro = rng.normal(size=(10, 3)) * 0.3
    dt = 1 / 200
    s_seq, cov_seq = s, cov
    for k in range(10):
        s_seq, cov_seq = propagate(s_seq, cov_seq,
                                   ImuSample(k * dt, acc[k], gyro[k]), dt,
                                   noise)
    s_b, cov_b = propagate_batch(s, cov, acc, gyro, dt, noise)
    assert_allclose(s_b.core.p_wi, s_seq.core.p_wi, atol=1e-14)
    assert_allclose(s_b.core.v_wi, s_seq.core.v_wi, atol=1e-14)
    assert_allclose(s_b.core.q_wi, s_seq.core.q_wi, atol=1e-14)
    assert_allclose(cov_b, cov_seq, atol=1e-15)


def test_batch_validates_dt():
    s = rest_state()
    with pytest.raises(ValueError):
        propagate_batch(s, np.eye(21), np.zeros((3, 3)), np.zeros((3, 3)),
                        0.2, quiet_noise())


class TestAgainstRk4Reference:
    """200 Hz propagation vs a 2 kHz RK4 integration of the same IMU signal."""

    @staticmethod
    def imu_signal(t):
        acc = np.array([0.8 * np.sin(1.3 * t), 0.5 * np.cos(0.9 * t),
                        0.3 * np.sin(0.7 * t + 0.4)])
        gyro = np.array([0.25 * np.sin(0.8 * t), 0.2 * np.cos(1.1 * t),
                         0.3 * np.sin(0.5 * t + 1.0)])
        return acc, gyro

    @classmethod
    def derivative(cls, t, p, v, q):
        acc, gyro = cls.imu_signal(t)
        dp = v
        dv = rot_of(q / np.linalg.norm(q)) @ acc - G
        wq = np.array([gyro[0], gyro[1], gyro[2], 0.0])
        x, y, z, w = q
        bx, by, bz, bw = wq
        dq = 0.5 * np.array([
            w * bx + x * bw + y * bz - z * by,
            w * by - x * bz + y * bw + z * bx,
            w * bz + x * by - y * bx + z * bw,
            w * bw - x * bx - y * by - z * bz,
        ])
        return dp, dv, dq

    @classmethod
    def rk4_reference(cls, duration, rate):
        dt = 1.0 / rate
        p, v, q = np.zeros(3), np.zeros(3), QUAT_IDENTITY.copy()
        t = 0.0
        for _ in range(int(round(duration * rate))):
            k1 = cls.derivative(t, p, v, q)
            k2 = cls.derivative(t + dt / 2, p + dt / 2 * k1[0],
                                v + dt / 2 * k1[1], q + dt / 2 * k1[2])
            k3 = cls.derivative(t + dt / 2, p + dt / 2 * k2[0],
                                v + dt / 2 * k2[1], q + dt / 2 * k2[2])
            k4 = cls.derivative(t + dt, p + dt * k3[0], v + dt * k3[1],
                                q + dt * k3[2])
            p = p + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            q = q + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            q = q / np.linalg.norm(q)
            t += dt
        return p, v, q

    def test_position_error_below_1mm_over_10s(self):
        duration, rate = 10.0, 200.0
        dt = 1.0 / rate
        p_ref, v_ref, _ = self.rk4_reference(duration, 2000.0)

        s = rest_state()
        cov = np.eye(21) * 1e-12
        for k in range(int(duration * rate)):
            # trapezoid-averaged consecutive samples, as the run loop feeds them
            a0, w0 = self.imu_signal(k * dt)
            a1, w1 = self.imu_signal((k + 1) * dt)
            sample = ImuSample(k * dt, 0.5 * (a0 + a1), 0.5 * (w0 + w1))
            s, cov = propagate(s, cov, sample, dt, quiet_noise())
        assert np.linalg.norm(s.core.p_wi - p_ref) < 1e-3
        assert np.linalg.norm(s.core.v_wi - v_ref) < 1e-3
