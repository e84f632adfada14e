"""Synthetic world: analytic 6-DoF trajectories, exact IMU synthesis, object
constellations, and perturbed relative pose measurements with emulated
per-measurement reported uncertainty (including scheduled ambiguity
episodes that inflate the true rotation noise).

Reporting modes:
  * "exact":    clean base noise, reported covariance equals the generating
                one (episode schedule ignored).
  * "fixed":    episode schedule active in the true noise, but a constant
                covariance is reported (the mis-specified, hand-tuned case).
  * "episodes": episode schedule active, with the reported rotation sigma
                inflated by the window's factor. The true noise is inflated
                by factor * episode_excess: an ambiguity-aware sensor flags
                difficult views with a raised uncertainty, but the raised
                value still under-captures the actual error tails, which is
                what makes threshold- and plausibility-based rejection
                meaningful for it.

All generators are pure functions of (spec, seed) with a fixed draw order,
so identical seeds give bit-identical streams and runs parallelize without
shared generator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom3 import exp_so3_batch, quat_of, quat_of_batch, rot_of
from .propagation import ImuNoise
from .update_direct import PoseMeasurement

TWO_PI = 2.0 * np.pi

SIGMA_MODES = ("exact", "fixed", "episodes")

IMU_RATE = 200.0           # Hz
FIXED_SIGMA_P = 0.04       # m, reported on every axis in the "fixed" mode
FIXED_SIGMA_THETA = 0.628  # rad, likewise
SIGMA_FLOOR = 1e-6         # the least sigma any mode reports


def _as3(x) -> np.ndarray:
    """A float copy of x, so a spec owns its arrays; a scalar fills 3."""
    arr = np.array(x, dtype=float)
    if arr.ndim == 0:
        arr = np.full(3, float(arr))
    return arr


@dataclass
class TrajectorySpec:
    """Sum-of-sinusoids trajectory with analytic derivatives.

    Euler angles are (yaw, pitch, roll), applied as
    R_wi = Rz(yaw) Ry(pitch) Rx(roll). Position in meters, angles in rad.
    """

    duration: float = 20.0
    pos_amp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pos_freq: np.ndarray = field(default_factory=lambda: np.full(3, 0.2))
    pos_phase: np.ndarray = field(default_factory=lambda: np.zeros(3))
    eul_amp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    eul_freq: np.ndarray = field(default_factory=lambda: np.full(3, 0.1))
    eul_phase: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("pos_amp", "pos_freq", "pos_phase", "eul_amp",
                     "eul_freq", "eul_phase"):
            setattr(self, name, _as3(getattr(self, name)))

    def position(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        return self.pos_amp * np.sin(TWO_PI * self.pos_freq * t
                                     + self.pos_phase)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        w = TWO_PI * self.pos_freq
        return self.pos_amp * w * np.cos(w * t + self.pos_phase)

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        w = TWO_PI * self.pos_freq
        return -self.pos_amp * w * w * np.sin(w * t + self.pos_phase)

    def euler(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        return self.eul_amp * np.sin(TWO_PI * self.eul_freq * t
                                     + self.eul_phase)

    def euler_rates(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        w = TWO_PI * self.eul_freq
        return self.eul_amp * w * np.cos(w * t + self.eul_phase)

    def rotation(self, t):
        yaw, pitch, roll = np.moveaxis(self.euler(t), -1, 0)
        return _rot_zyx(yaw, pitch, roll)

    def quaternion(self, t):
        yaw, pitch, roll = np.moveaxis(self.euler(t), -1, 0)
        return _quat_zyx(yaw, pitch, roll)

    def omega_body(self, t):
        """Body angular velocity from the Euler-rate kinematics (3-2-1)."""
        yaw, pitch, roll = np.moveaxis(self.euler(t), -1, 0)
        dyaw, dpitch, droll = np.moveaxis(self.euler_rates(t), -1, 0)
        sph, cph = np.sin(roll), np.cos(roll)
        sth, cth = np.sin(pitch), np.cos(pitch)
        wx = droll - dyaw * sth
        wy = dpitch * cph + dyaw * cth * sph
        wz = -dpitch * sph + dyaw * cth * cph
        return np.stack([wx, wy, wz], axis=-1)


def _rot_zyx(yaw, pitch, roll):
    sy, cy = np.sin(yaw), np.cos(yaw)
    sp, cp = np.sin(pitch), np.cos(pitch)
    sr, cr = np.sin(roll), np.cos(roll)
    rot = np.empty(np.shape(yaw) + (3, 3))
    rot[..., 0, 0] = cy * cp
    rot[..., 0, 1] = cy * sp * sr - sy * cr
    rot[..., 0, 2] = cy * sp * cr + sy * sr
    rot[..., 1, 0] = sy * cp
    rot[..., 1, 1] = sy * sp * sr + cy * cr
    rot[..., 1, 2] = sy * sp * cr - cy * sr
    rot[..., 2, 0] = -sp
    rot[..., 2, 1] = cp * sr
    rot[..., 2, 2] = cp * cr
    return rot


def _quat_zyx(yaw, pitch, roll):
    cy, sy = np.cos(0.5 * yaw), np.sin(0.5 * yaw)
    cp, sp = np.cos(0.5 * pitch), np.sin(0.5 * pitch)
    cr, sr = np.cos(0.5 * roll), np.sin(0.5 * roll)
    q = np.empty(np.shape(yaw) + (4,))
    q[..., 0] = sr * cp * cy - cr * sp * sy
    q[..., 1] = cr * sp * cy + sr * cp * sy
    q[..., 2] = cr * cp * sy - sr * sp * cy
    q[..., 3] = cr * cp * cy + sr * sp * sy
    flip = q[..., 3] < 0
    q[flip] = -q[flip]
    return q


def camera_forward_extrinsics():
    """(p_ic, q_ic) of a camera rigidly 0.1 m ahead of the IMU, optical axis
    (+z of C) along body +x, image x right (-y body), image y down (-z
    body)."""
    rot_ic = np.array([
        [0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
    ])
    return np.array([0.1, 0.0, 0.0]), quat_of(rot_ic)


@dataclass
class SensorSpec:
    """Camera and measurement-noise settings; the camera mount is
    camera_forward_extrinsics()."""

    cam_rate: float = 20.0
    sigma_p: np.ndarray = field(default_factory=lambda: np.full(3, 0.01))
    sigma_theta: np.ndarray = field(default_factory=lambda: np.full(3, 0.0175))
    mode: str = "exact"
    episodes: list = field(default_factory=list)  # (t_start, t_end, factor)
    episode_excess: float = 2.5
    fov_deg: float = 90.0
    max_range: float = 10.0

    def __post_init__(self):
        if self.mode not in SIGMA_MODES:
            raise ValueError(f"unknown sigma mode {self.mode!r}; expected "
                             f"one of {SIGMA_MODES}")
        self.sigma_p = _as3(self.sigma_p)
        self.sigma_theta = _as3(self.sigma_theta)
        for name in ("sigma_p", "sigma_theta"):
            sigma = getattr(self, name)
            if not np.all(np.isfinite(sigma) & (sigma >= 0)):
                raise ValueError(f"{name} must be finite and not negative")
        for name in ("cam_rate", "episode_excess", "fov_deg", "max_range"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for t0, t1, factor in self.episodes:
            if not (-np.inf < t0 < t1 < np.inf and 0 < factor < np.inf):
                raise ValueError(f"episodes: window ({t0}, {t1}, {factor}) "
                                 "needs start < end and a positive factor, "
                                 "all finite")

    def rotation_inflation(self, t: float):
        """(true, reported) rotation-noise inflation factors at time t.

        Both are 1.0 off-episode; inside a window the reported factor is the
        schedule's value and the true factor carries the additional
        episode_excess. The schedule only acts in the 'fixed' and 'episodes'
        modes.
        """
        if self.mode == "exact":
            return 1.0, 1.0
        for t0, t1, factor in self.episodes:
            if t0 <= t < t1:
                return float(factor) * self.episode_excess, float(factor)
        return 1.0, 1.0


@dataclass
class ImuStream:
    t: np.ndarray
    acc: np.ndarray
    gyro: np.ndarray


@dataclass
class MeasurementStream:
    t: np.ndarray
    ticks: list            # list (per camera tick) of lists of PoseMeasurement
    truth_pos: np.ndarray
    truth_vel: np.ndarray
    truth_quat: np.ndarray


TIME_TOL = 1e-9  # s: how far a step or a tick may be from its due time


def timing_fault(imu_t: np.ndarray, cam_t: np.ndarray):
    """The first break of the timing the filter needs, as (stream, index,
    message) with stream "IMU" or "camera", or None: times increase
    strictly; each IMU step equals the first and camera tick k falls on IMU
    sample k * ratio (ratio: IMU intervals per camera interval), to
    TIME_TOL; with more than one tick, the last tick is the last IMU sample.
    """
    for stream, t in (("IMU", imu_t), ("camera", cam_t)):
        back = np.flatnonzero(np.diff(t) <= 0)
        if back.size:
            return (stream, back[0] + 1,
                    "timestamps are not strictly increasing")
    step = np.diff(imu_t)
    uneven = np.flatnonzero(np.abs(step - step[:1]) > TIME_TOL)
    if uneven.size:
        return "IMU", uneven[0] + 1, "IMU samples are not evenly spaced"
    n_cam = len(cam_t) - 1
    ratio = len(step) // n_cam if n_cam else 0
    off = np.flatnonzero(
        np.abs(imu_t[np.arange(n_cam + 1) * ratio] - cam_t) > TIME_TOL)
    if off.size:
        k = off[0]
        return "camera", k, (f"camera tick {k} at t={cam_t[k]:.9g} s does "
                             f"not fall on IMU sample {k * ratio}")
    if n_cam and n_cam * ratio < len(step):
        return ("IMU", n_cam * ratio + 1,
                "IMU samples continue past the last camera tick")
    return None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(stream,))))


def gen_imu(traj: TrajectorySpec, noise: ImuNoise, rate: float,
            seed: int) -> ImuStream:
    """Exact inversion of the strapdown dynamics plus simulated errors.

    a_m = R_wi^T (a_world + g) + b_a + n_a, w_m = w_body + b_w + n_w, with
    biases as discrete random walks starting at zero. Draw order is fixed:
    accel white, gyro white, accel-bias increments, gyro-bias increments.
    """
    n_steps = int(round(traj.duration * rate))
    t = np.arange(n_steps + 1) / rate
    dt = 1.0 / rate
    rng = _rng(seed, 0)
    white_acc = rng.standard_normal((n_steps + 1, 3))
    white_gyro = rng.standard_normal((n_steps + 1, 3))
    walk_acc = rng.standard_normal((n_steps + 1, 3))
    walk_gyro = rng.standard_normal((n_steps + 1, 3))
    walk_acc[0] = 0.0
    walk_gyro[0] = 0.0
    bias_accel = np.cumsum(walk_acc * (noise.sigma_accel_bias * np.sqrt(dt)),
                           axis=0)
    bias_gyro = np.cumsum(walk_gyro * (noise.sigma_gyro_bias * np.sqrt(dt)),
                          axis=0)

    rot = traj.rotation(t)
    a_world = traj.acceleration(t)
    specific = np.einsum("nji,nj->ni", rot, a_world + noise.gravity)
    acc = specific + bias_accel + white_acc * (noise.sigma_acc / np.sqrt(dt))
    gyro = (traj.omega_body(t) + bias_gyro
            + white_gyro * (noise.sigma_gyro / np.sqrt(dt)))
    return ImuStream(t, acc, gyro)


def _relative_poses(traj: TrajectorySpec, world: list, t: np.ndarray):
    """True (p_co, R_co) for every (tick, object) of the world, a list of
    ObjectState, seen from camera_forward_extrinsics()."""
    p_ic, q_ic = camera_forward_extrinsics()
    rot_wi = traj.rotation(t)
    p_wi = traj.position(t)
    rot_wc = rot_wi @ rot_of(q_ic)
    p_wc = p_wi + np.einsum("nij,j->ni", rot_wi, p_ic)
    n_t = t.shape[0]
    n_o = len(world)
    p_co = np.empty((n_t, n_o, 3))
    rot_co = np.empty((n_t, n_o, 3, 3))
    for j, obj in enumerate(world):
        d = obj.p_wo - p_wc
        p_co[:, j] = np.einsum("nji,nj->ni", rot_wc, d)
        rot_co[:, j] = np.einsum("nji,jk->nik", rot_wc, rot_of(obj.q_wo))
    return p_co, rot_co


def _in_frustum(p_co: np.ndarray, fov_deg: float,
               max_range_m: float) -> np.ndarray:
    """Mask of the camera-frame positions (..., 3) inside the frustum: a
    cone of half-angle fov/2 about the optical axis +z, range limit
    inclusive, the camera centre itself excluded."""
    rng_m = np.linalg.norm(p_co, axis=-1)
    near = (rng_m >= 1e-9) & (rng_m <= max_range_m)
    cos = np.clip(p_co[..., 2] / np.where(near, rng_m, 1.0), -1.0, 1.0)
    return near & (np.arccos(cos) <= np.deg2rad(fov_deg) / 2.0)


def visibility(traj: TrajectorySpec, world: list, t: float,
               fov_deg: float, max_range_m: float) -> list:
    """Indices into world of the objects inside the camera's frustum at time
    t (see _in_frustum)."""
    p_co, _ = _relative_poses(traj, world, np.atleast_1d(float(t)))
    visible = _in_frustum(p_co[0], fov_deg, max_range_m)
    return [j for j, v in enumerate(visible) if v]


def gen_measurements(traj: TrajectorySpec, world: list,
                     sensor: SensorSpec, seed: int) -> MeasurementStream:
    """Per camera tick, perturbed relative poses of the visible objects of
    the world, a list of ObjectState.

    Translation noise is additive; rotation noise is a right perturbation
    exp_so3(n) in the tangent of the measured rotation. Noise is drawn for
    every (tick, object) pair in a fixed order regardless of visibility, so
    streams with different worlds or FoV settings stay reproducible.
    """
    n_ticks = int(round(traj.duration * sensor.cam_rate))
    t = np.arange(n_ticks + 1) / sensor.cam_rate
    p_co, rot_co = _relative_poses(traj, world, t)
    n_o = len(world)
    rng = _rng(seed, 1)
    noise_p = rng.standard_normal((n_ticks + 1, n_o, 3))
    noise_r = rng.standard_normal((n_ticks + 1, n_o, 3))

    visible = _in_frustum(p_co, sensor.fov_deg, sensor.max_range)
    inflations = np.array([sensor.rotation_inflation(tk) for tk in t])
    sig_theta_true = sensor.sigma_theta * inflations[:, 0:1]  # (K, 3)
    p_meas_all = p_co + noise_p * sensor.sigma_p
    rot_meas_all = rot_co @ exp_so3_batch(
        noise_r * sig_theta_true[:, None, :])
    q_meas_all = quat_of_batch(rot_meas_all)

    ticks = []
    for k in range(n_ticks + 1):
        if sensor.mode == "fixed":
            rep_p = np.full(3, FIXED_SIGMA_P)
            rep_t = np.full(3, FIXED_SIGMA_THETA)
        else:
            rep_p = np.maximum(sensor.sigma_p, SIGMA_FLOOR)
            rep_t = np.maximum(sensor.sigma_theta * inflations[k, 1],
                               SIGMA_FLOOR)
        frame = []
        for j, obj in enumerate(world):
            if not visible[k, j]:
                continue
            frame.append(PoseMeasurement(
                object_class=obj.obj_class, p_co=p_meas_all[k, j],
                q_co=q_meas_all[k, j], var_p=rep_p**2, var_theta=rep_t**2))
        ticks.append(frame)
    return MeasurementStream(t, ticks, traj.position(t), traj.velocity(t),
                             traj.quaternion(t))
