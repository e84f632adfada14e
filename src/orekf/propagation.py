"""IMU strapdown propagation of the nominal state and the error covariance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import state as st

MAX_DT = 0.1


@dataclass
class ImuNoise:
    """Continuous-time noise densities and gravity.

    sigma_acc / sigma_gyro are white-noise densities (m/s^2/sqrt(Hz),
    rad/s/sqrt(Hz)); sigma_accel_bias / sigma_gyro_bias are bias random-walk
    densities. gravity points along +z by default (world z-axis up).
    """

    sigma_acc: float = 0.02
    sigma_gyro: float = 0.002
    sigma_accel_bias: float = 5e-4
    sigma_gyro_bias: float = 5e-5
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))

    def __post_init__(self):
        self.gravity = np.asarray(self.gravity, dtype=float)
        for name in ("sigma_acc", "sigma_gyro", "sigma_accel_bias",
                     "sigma_gyro_bias"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


def propagate_batch(state: st.FullState, cov: np.ndarray, acc: np.ndarray,
                    gyro: np.ndarray, dt: float, noise: ImuNoise):
    """Propagate through several consecutive samples with one covariance
    application.

    The nominal state integrates at second order (midpoint attitude for the
    velocity increment, trapezoid for position, exact exponential on the
    attitude); the covariance uses the first-order discretized error-state
    transition, with static, noise-free object and extrinsic blocks. The
    per-step transitions are compounded (F_tot = F_n ... F_1, noise folded
    through the later factors) and applied to the covariance once; the
    single-step reference it matches up to floating-point association is
    kept in tests/test_propagation.py. An infinite or NaN angular rate
    makes the nominal state NaN.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt={dt} outside (0, {MAX_DT}]")
    acc = np.asarray(acc, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    n_steps = acc.shape[0]
    core = state.core
    px, py, pz = (float(c) for c in core.p_wi)
    vx, vy, vz = (float(c) for c in core.v_wi)
    qx, qy, qz, qw = (float(c) for c in core.q_wi)
    bg, ba = core.bias_gyro, core.bias_accel
    bgx, bgy, bgz = (float(c) for c in bg)
    bax, bay, baz = (float(c) for c in ba)
    gx, gy, gz = (float(c) for c in noise.gravity)
    acc_l = acc.tolist()
    gyro_l = gyro.tolist()

    f_tot = np.eye(st.CORE_DIM)
    q_tot = np.zeros((st.CORE_DIM, st.CORE_DIM))
    q_diag = np.zeros(st.CORE_DIM)
    q_diag[st.VEL] = noise.sigma_acc**2 * dt
    q_diag[st.ATT] = noise.sigma_gyro**2 * dt
    q_diag[st.BG] = noise.sigma_gyro_bias**2 * dt
    q_diag[st.BA] = noise.sigma_accel_bias**2 * dt
    f_k = np.eye(st.CORE_DIM)
    f_k[st.POS, st.VEL] = dt * np.eye(3)
    f_k[st.ATT, st.BG] = -np.eye(3) * dt
    half_dt = 0.5 * dt

    for k in range(n_steps):
        wx = gyro_l[k][0] - bgx
        wy = gyro_l[k][1] - bgy
        wz = gyro_l[k][2] - bgz
        ax = acc_l[k][0] - bax
        ay = acc_l[k][1] - bay
        az = acc_l[k][2] - baz

        # rotation matrix of the current attitude (for F and the midpoint)
        xx, yy, zz = qx * qx, qy * qy, qz * qz
        xy, xz, yz = qx * qy, qx * qz, qy * qz
        wqx, wqy, wqz = qw * qx, qw * qy, qw * qz
        r00 = 1.0 - 2.0 * (yy + zz)
        r01 = 2.0 * (xy - wqz)
        r02 = 2.0 * (xz + wqy)
        r10 = 2.0 * (xy + wqz)
        r11 = 1.0 - 2.0 * (xx + zz)
        r12 = 2.0 * (yz - wqx)
        r20 = 2.0 * (xz - wqy)
        r21 = 2.0 * (yz + wqx)
        r22 = 1.0 - 2.0 * (xx + yy)

        # midpoint attitude q (x) exp(w dt/2) for the velocity increment
        ang = math.sqrt(wx * wx + wy * wy + wz * wz)
        if ang * half_dt < 1e-12:
            mx, my, mz, mw = qx, qy, qz, qw
            ex = ey = ez = 0.0
            ew = 1.0
        elif not ang < math.inf:
            # no rotation to integrate: the attitude becomes NaN, which the
            # run loop reports as divergence
            mx = my = mz = mw = ex = ey = ez = ew = math.nan
        else:
            half_ang = 0.5 * ang * half_dt
            s = math.sin(half_ang) / ang
            hx, hy, hz, hw = wx * s, wy * s, wz * s, math.cos(half_ang)
            mx = qw * hx + qx * hw + qy * hz - qz * hy
            my = qw * hy - qx * hz + qy * hw + qz * hx
            mz = qw * hz + qx * hy - qy * hx + qz * hw
            mw = qw * hw - qx * hx - qy * hy - qz * hz
            full_ang = 0.5 * ang * dt
            s = math.sin(full_ang) / ang
            ex, ey, ez, ew = wx * s, wy * s, wz * s, math.cos(full_ang)

        # a_world = R_mid a_body - g via quaternion rotation
        m_xx, m_yy, m_zz = mx * mx, my * my, mz * mz
        m_xy, m_xz, m_yz = mx * my, mx * mz, my * mz
        m_wx, m_wy, m_wz = mw * mx, mw * my, mw * mz
        awx = ((1.0 - 2.0 * (m_yy + m_zz)) * ax + 2.0 * (m_xy - m_wz) * ay
               + 2.0 * (m_xz + m_wy) * az - gx)
        awy = (2.0 * (m_xy + m_wz) * ax + (1.0 - 2.0 * (m_xx + m_zz)) * ay
               + 2.0 * (m_yz - m_wx) * az - gy)
        awz = (2.0 * (m_xz - m_wy) * ax + 2.0 * (m_yz + m_wx) * ay
               + (1.0 - 2.0 * (m_xx + m_yy)) * az - gz)

        vx_new = vx + awx * dt
        vy_new = vy + awy * dt
        vz_new = vz + awz * dt
        px += 0.5 * (vx + vx_new) * dt
        py += 0.5 * (vy + vy_new) * dt
        pz += 0.5 * (vz + vz_new) * dt
        vx, vy, vz = vx_new, vy_new, vz_new

        # attitude step q <- q (x) exp(w dt), normalized
        nqx = qw * ex + qx * ew + qy * ez - qz * ey
        nqy = qw * ey - qx * ez + qy * ew + qz * ex
        nqz = qw * ez + qx * ey - qy * ex + qz * ew
        nqw = qw * ew - qx * ex - qy * ey - qz * ez
        inv_n = 1.0 / math.sqrt(nqx * nqx + nqy * nqy + nqz * nqz + nqw * nqw)
        if nqw < 0.0:
            inv_n = -inv_n
        qx, qy, qz, qw = nqx * inv_n, nqy * inv_n, nqz * inv_n, nqw * inv_n

        # F blocks, written entrywise from the scalar rotation:
        # dv/dtheta = -R [a]x dt, dv/dba = -R dt, dtheta/dtheta = I - [w]x dt
        f_k[3, 6] = (r01 * az - r02 * ay) * -dt
        f_k[3, 7] = (r02 * ax - r00 * az) * -dt
        f_k[3, 8] = (r00 * ay - r01 * ax) * -dt
        f_k[4, 6] = (r11 * az - r12 * ay) * -dt
        f_k[4, 7] = (r12 * ax - r10 * az) * -dt
        f_k[4, 8] = (r10 * ay - r11 * ax) * -dt
        f_k[5, 6] = (r21 * az - r22 * ay) * -dt
        f_k[5, 7] = (r22 * ax - r20 * az) * -dt
        f_k[5, 8] = (r20 * ay - r21 * ax) * -dt
        f_k[3, 12] = r00 * -dt
        f_k[3, 13] = r01 * -dt
        f_k[3, 14] = r02 * -dt
        f_k[4, 12] = r10 * -dt
        f_k[4, 13] = r11 * -dt
        f_k[4, 14] = r12 * -dt
        f_k[5, 12] = r20 * -dt
        f_k[5, 13] = r21 * -dt
        f_k[5, 14] = r22 * -dt
        f_k[6, 7] = wz * dt
        f_k[6, 8] = -wy * dt
        f_k[7, 6] = -wz * dt
        f_k[7, 8] = wx * dt
        f_k[8, 6] = wy * dt
        f_k[8, 7] = -wx * dt
        f_tot = f_k @ f_tot
        q_tot = f_k @ q_tot @ f_k.T
        q_tot_diag = q_tot.reshape(-1)[:: st.CORE_DIM + 1]
        q_tot_diag += q_diag

    new_core = st.CoreState(np.array([px, py, pz]), np.array([vx, vy, vz]),
                            np.array([qx, qy, qz, qw]), bg.copy(), ba.copy())
    new_state = st.FullState(new_core, state.extr.copy(),
                             [o.copy() for o in state.objects])
    new_cov = np.empty_like(cov)
    new_cov[: st.CORE_DIM, :] = f_tot @ cov[: st.CORE_DIM, :]
    new_cov[st.CORE_DIM:, :] = cov[st.CORE_DIM:, :]
    new_cov[:, : st.CORE_DIM] = new_cov[:, : st.CORE_DIM] @ f_tot.T
    new_cov[: st.CORE_DIM, : st.CORE_DIM] += q_tot
    return new_state, st.symmetrize(new_cov)
