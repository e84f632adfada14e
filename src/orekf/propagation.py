"""IMU strapdown propagation of the nominal state and the error covariance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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


# (row, column) of the entries of a step's transition F that depend on the
# sample, in the order _strapdown lists them: dv/dtheta = -R [a]x dt,
# dv/dba = -R dt, dtheta/dtheta = I - [w]x dt
_F_ROWS = np.array([3, 3, 3, 4, 4, 4, 5, 5, 5, 3, 3, 3, 4, 4, 4, 5, 5, 5,
                    6, 6, 7, 7, 8, 8])
_F_COLS = np.array([6, 7, 8, 6, 7, 8, 6, 7, 8, 12, 13, 14, 12, 13, 14, 12,
                    13, 14, 7, 8, 6, 8, 6, 7])
_F_FLAT = _F_ROWS * st.CORE_DIM + _F_COLS     # the same in a flattened F


def _strapdown(core: list, acc: list, gyro: list, dt: float, gravity):
    """Integrate the nominal core state, the first 16 values of x as a list,
    through the samples (lists of [x, y, z]) in scalar arithmetic.

    Returns (p, v, q, entries): the final position, velocity and attitude
    as lists, and one flat list of the 24 sample-dependent entries of each
    step's transition F at _F_ROWS, _F_COLS.
    """
    (px, py, pz, vx, vy, vz, qx, qy, qz, qw, bgx, bgy, bgz, bax, bay,
     baz) = core
    gx, gy, gz = (float(c) for c in gravity)
    half_dt = 0.5 * dt
    entries = []

    for (ax, ay, az), (wx, wy, wz) in zip(acc, gyro):
        wx, wy, wz = wx - bgx, wy - bgy, wz - bgz
        ax, ay, az = ax - bax, ay - bay, az - baz

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

        # F entries from the scalar rotation, in _F_ROWS/_F_COLS order
        entries.extend((
            (r01 * az - r02 * ay) * -dt, (r02 * ax - r00 * az) * -dt,
            (r00 * ay - r01 * ax) * -dt, (r11 * az - r12 * ay) * -dt,
            (r12 * ax - r10 * az) * -dt, (r10 * ay - r11 * ax) * -dt,
            (r21 * az - r22 * ay) * -dt, (r22 * ax - r20 * az) * -dt,
            (r20 * ay - r21 * ax) * -dt,
            r00 * -dt, r01 * -dt, r02 * -dt, r10 * -dt, r11 * -dt, r12 * -dt,
            r20 * -dt, r21 * -dt, r22 * -dt,
            wz * dt, -wy * dt, -wz * dt, wx * dt, wy * dt, -wx * dt))

    return [px, py, pz], [vx, vy, vz], [qx, qy, qz, qw], entries


@lru_cache(maxsize=16)
def _step_constants(dt: float, sigma_acc: float, sigma_gyro: float,
                    sigma_gyro_bias: float, sigma_accel_bias: float):
    """The diagonal of a step's process noise and the sample-independent
    part of its transition F, as read-only arrays."""
    q_diag = np.zeros(st.CORE_DIM)
    q_diag[st.VEL] = sigma_acc**2 * dt
    q_diag[st.ATT] = sigma_gyro**2 * dt
    q_diag[st.BG] = sigma_gyro_bias**2 * dt
    q_diag[st.BA] = sigma_accel_bias**2 * dt
    f_const = np.eye(st.CORE_DIM)
    f_const[st.POS, st.VEL] = dt * np.eye(3)
    f_const[st.ATT, st.BG] = -np.eye(3) * dt
    q_diag.flags.writeable = f_const.flags.writeable = False
    return q_diag, f_const


def _compound(entries: np.ndarray, dt: float, noise: ImuNoise):
    """F_tot = F_n ... F_1 and the noise folded through the later factors,
    from the F entries of each step of one run, (n, 24), or of R runs,
    (n, R, 24); for R runs each factor is one stacked matmul."""
    q_diag, f_const = _step_constants(
        dt, noise.sigma_acc, noise.sigma_gyro, noise.sigma_gyro_bias,
        noise.sigma_accel_bias)
    # every step's F, its sample entries written in at once
    f = np.empty(entries.shape[:-1] + f_const.shape)
    f[...] = f_const
    f.reshape(entries.shape[:-1] + (-1,))[..., _F_FLAT] = entries
    # the 2-D identity broadcasts over the runs in the first product; every
    # product F Q F^T lands in q_tot, so its diagonal is one fixed view
    f_tot = np.eye(st.CORE_DIM)
    q_tot = np.zeros(f.shape[1:])
    q_tot_diag = q_tot.reshape(q_tot.shape[:-2] + (-1,))[
        ..., :: st.CORE_DIM + 1]
    for f_k, f_k_t in zip(f, f.swapaxes(-1, -2)):
        f_tot = f_k @ f_tot
        np.matmul(f_k @ q_tot, f_k_t, out=q_tot)
        q_tot_diag += q_diag
    return f_tot, q_tot


def _apply(cov: np.ndarray, f_tot: np.ndarray, q_tot: np.ndarray):
    """F P F^T + Q on the core rows and columns of one covariance or of a
    stack of them; the other blocks are static and noise-free."""
    new_cov = np.empty_like(cov)
    new_cov[..., : st.CORE_DIM, :] = f_tot @ cov[..., : st.CORE_DIM, :]
    new_cov[..., st.CORE_DIM:, :] = cov[..., st.CORE_DIM:, :]
    new_cov[..., :, : st.CORE_DIM] = (new_cov[..., :, : st.CORE_DIM]
                                      @ f_tot.swapaxes(-1, -2))
    new_cov[..., : st.CORE_DIM, : st.CORE_DIM] += q_tot
    return st.symmetrize(new_cov)


def _propagated(state: st.FullState, p, v, q) -> st.FullState:
    x = state.x.copy()
    x[:10] = p + v + q          # p_wi, v_wi, q_wi
    return st.FullState(x, state.classes)


def propagate_batch(state, cov: np.ndarray, acc, gyro, dt: float,
                    noise: ImuNoise):
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

    Several runs step in lockstep when cov is a stack (R, d, d): state,
    acc and gyro then hold the R runs' values, with the same sample count,
    and the result is (list of R states, (R, d, d) covariances), bit for
    bit what R single calls return. Each run integrates its own nominal
    state; the transitions of all runs compound and apply as stacked
    products.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt={dt} outside (0, {MAX_DT}]")
    if cov.ndim == 2:
        p, v, q, entries = _strapdown(
            state.x[:16].tolist(), np.asarray(acc, dtype=float).tolist(),
            np.asarray(gyro, dtype=float).tolist(), dt, noise.gravity)
        f_tot, q_tot = _compound(np.fromiter(entries, float, len(entries))
                                 .reshape(-1, 24), dt, noise)
        return _propagated(state, p, v, q), _apply(cov, f_tot, q_tot)
    steps = [_strapdown(s.x[:16].tolist(),
                        np.asarray(a, dtype=float).tolist(),
                        np.asarray(g, dtype=float).tolist(), dt,
                        noise.gravity)
             for s, a, g in zip(state, acc, gyro)]
    entries = np.array([e for *_, e in steps]).reshape(len(steps), -1, 24)
    f_tot, q_tot = _compound(entries.swapaxes(0, 1), dt, noise)
    return ([_propagated(s, p, v, q) for s, (p, v, q, _) in zip(state, steps)],
            _apply(cov, f_tot, q_tot))
