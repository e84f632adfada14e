import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import kstest, maxwell

from orekf import sim
from orekf.gating import AORP_TAU_THETA, Verdict, aorp
from orekf.geom3 import QUAT_IDENTITY, log_so3, rot_of
from orekf.presets import PRESETS
from orekf.propagation import ImuNoise
from orekf.sim import (
    SIGMA_FLOOR,
    SensorSpec,
    TrajectorySpec,
    camera_forward_extrinsics,
    gen_imu,
    gen_measurements,
    visibility,
)
from orekf.state import ObjectState
from tests.test_geom3 import Pose

G = np.array([0.0, 0.0, 9.81])

# one value per SensorSpec field that a spec must reject, naming the field
BAD_SPEC_VALUES = [
    ("sigma_p", -0.1),
    ("sigma_theta", np.nan),
    ("cam_rate", 0.0),
    ("episode_excess", -1.0),
    ("episodes", [(1.0, 0.5, 2.0)]),
]


def lively_traj(duration=10.0):
    return TrajectorySpec(duration=duration,
                          pos_amp=[0.3, 0.2, 0.1],
                          pos_freq=[0.2, 0.3, 0.25],
                          pos_phase=[0.0, 1.0, 2.0],
                          eul_amp=[0.15, 0.1, 0.08],
                          eul_freq=[0.15, 0.1, 0.2],
                          eul_phase=[0.5, 1.5, 2.5])


def single_object_world(p=(1.5, 0.0, 0.0)):
    return [ObjectState("box", np.asarray(p, dtype=float),
                        QUAT_IDENTITY.copy())]


class TestTrajectory:
    def test_analytic_derivatives_match_numeric(self):
        traj = lively_traj()
        t = np.linspace(0.3, 9.7, 40)
        eps = 1e-6
        vel_num = (traj.position(t + eps) - traj.position(t - eps)) / (2 * eps)
        acc_num = (traj.velocity(t + eps) - traj.velocity(t - eps)) / (2 * eps)
        assert_allclose(traj.velocity(t), vel_num, atol=1e-6)
        assert_allclose(traj.acceleration(t), acc_num, atol=1e-5)

    def test_omega_body_matches_rotation_derivative(self):
        traj = lively_traj()
        eps = 1e-6
        for tk in np.linspace(0.2, 9.5, 25):
            rot = traj.rotation(tk)
            drot = (traj.rotation(tk + eps) - traj.rotation(tk - eps)) / (2 * eps)
            omega_mat = rot.T @ drot
            omega_num = np.array([omega_mat[2, 1], omega_mat[0, 2],
                                  omega_mat[1, 0]])
            assert_allclose(traj.omega_body(tk), omega_num, atol=1e-6)

    def test_quaternion_matches_rotation(self):
        traj = lively_traj()
        for tk in np.linspace(0.0, 9.0, 15):
            assert_allclose(rot_of(traj.quaternion(tk)), traj.rotation(tk),
                            atol=1e-12)


class TestGenImu:
    def test_static_gravity_only(self):
        traj = TrajectorySpec(duration=1.0)  # all amplitudes zero
        stream = gen_imu(traj, ImuNoise(0, 0, 0, 0), 200.0, seed=0)
        assert_allclose(stream.acc, np.tile(G, (201, 1)), atol=1e-12)
        assert_allclose(stream.gyro, 0.0, atol=1e-12)

    def test_reproducible_bit_identical(self):
        traj = lively_traj(2.0)
        a = gen_imu(traj, ImuNoise(), 200.0, seed=11)
        b = gen_imu(traj, ImuNoise(), 200.0, seed=11)
        assert np.array_equal(a.acc, b.acc)
        assert np.array_equal(a.gyro, b.gyro)
        c = gen_imu(traj, ImuNoise(), 200.0, seed=12)
        assert not np.array_equal(a.acc, c.acc)

    def test_bias_random_walk_variance_grows_linearly(self):
        traj = TrajectorySpec(duration=4.0)
        noise = ImuNoise(0, 0, 1e-3, 1e-3)
        rate = 100.0
        k1, k2 = 100, 400  # t = 1 s and t = 4 s
        b1, b2 = [], []
        for seed in range(400):
            s = gen_imu(traj, noise, rate, seed=seed)
            # static and free of white noise: acc_x is the bias itself
            b1.append(s.acc[k1, 0])
            b2.append(s.acc[k2, 0])
        v1, v2 = np.var(b1), np.var(b2)
        assert abs(v1 / (1e-6 * 1.0) - 1.0) < 0.25
        assert abs(v2 / (1e-6 * 4.0) - 1.0) < 0.25
        assert abs(v2 / v1 - 4.0) < 1.0

    def test_white_noise_scaling(self):
        traj = TrajectorySpec(duration=2.0)
        noise = ImuNoise(0.02, 0.002, 0, 0)
        s = gen_imu(traj, noise, 200.0, seed=5)
        resid = s.acc - G  # static trajectory: the rest is white noise
        expect = 0.02 * np.sqrt(200.0)
        assert abs(np.std(resid) / expect - 1.0) < 0.1


class TestVisibility:
    def test_on_axis_visible(self):
        world = single_object_world((2.1, 0.0, 0.0))  # 2 m ahead of camera
        ids = visibility(TrajectorySpec(duration=1.0), world, 0.0, 90.0, 10.0)
        assert ids == [0]

    def test_behind_camera_invisible(self):
        world = single_object_world((-2.0, 0.0, 0.0))
        assert visibility(TrajectorySpec(duration=1.0), world, 0.0, 90.0,
                          10.0) == []

    def test_range_boundary_inclusive(self):
        world = single_object_world((2.1, 0.0, 0.0))  # exactly 2.0 m range
        assert visibility(TrajectorySpec(duration=1.0), world, 0.0, 90.0,
                          2.0) == [0]
        assert visibility(TrajectorySpec(duration=1.0), world, 0.0, 90.0,
                          1.999999) == []

    def test_cone_edge(self):
        half = np.deg2rad(45.0)
        d = 2.0
        # just inside / outside the 90 deg cone
        inside = (0.1 + d * np.cos(half - 1e-9), -d * np.sin(half - 1e-9), 0.0)
        outside = (0.1 + d * np.cos(half + 1e-6), -d * np.sin(half + 1e-6), 0.0)
        assert visibility(TrajectorySpec(duration=1.0),
                          single_object_world(inside), 0.0, 90.0, 10.0) == [0]
        assert visibility(TrajectorySpec(duration=1.0),
                          single_object_world(outside), 0.0, 90.0, 10.0) == []


class TestGenMeasurements:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_frames_hold_exactly_the_visible_objects(self, preset,
                                                     monkeypatch):
        scenario = PRESETS[preset]
        monkeypatch.setattr(sim, "FOV_DEG", 70.0)
        monkeypatch.setattr(sim, "MAX_RANGE", 4.0)
        stream = gen_measurements(scenario.trajectory, scenario.world,
                                  SensorSpec(), seed=0)
        for tk, frame in zip(stream.t, stream.ticks):
            ids = visibility(scenario.trajectory, scenario.world, tk, 70.0,
                             4.0)
            assert [m.object_class for m in frame] \
                == [scenario.world[i].obj_class for i in ids]

    def test_zero_sigma_gives_exact_relative_pose(self):
        traj = lively_traj(2.0)
        world = single_object_world()
        sensor = SensorSpec(sigma_p=0.0, sigma_theta=0.0)
        stream = gen_measurements(traj, world, sensor, seed=0)
        p_ic, q_ic = camera_forward_extrinsics()
        obj_pose = Pose(world[0].p_wo, world[0].q_wo)
        for k in (0, 10, 35):
            m = stream.ticks[k][0]
            t_wi = Pose(stream.truth_pos[k], stream.truth_quat[k])
            t_wc = t_wi.compose(Pose(p_ic, q_ic))
            t_co = t_wc.inverse().compose(obj_pose)
            assert_allclose(m.p_co, t_co.p, atol=1e-12)
            assert_allclose(m.q_co, t_co.q, atol=1e-12)
            assert_allclose(m.var_p, SIGMA_FLOOR**2)

    def test_reproducible_and_seed_sensitive(self):
        traj = lively_traj(2.0)
        world = single_object_world()
        sensor = SensorSpec(sigma_p=0.02, sigma_theta=0.05)
        a = gen_measurements(traj, world, sensor, seed=3)
        b = gen_measurements(traj, world, sensor, seed=3)
        c = gen_measurements(traj, world, sensor, seed=4)
        assert np.array_equal(a.ticks[5][0].p_co, b.ticks[5][0].p_co)
        assert np.array_equal(a.ticks[5][0].q_co, b.ticks[5][0].q_co)
        assert not np.array_equal(a.ticks[5][0].p_co, c.ticks[5][0].p_co)

    def test_empirical_noise_matches_configured_sigma(self):
        traj = lively_traj(10.0)
        world = single_object_world()
        sigma_p = 0.03
        sensor = SensorSpec(sigma_p=sigma_p, sigma_theta=0.02)
        p_ic, q_ic = camera_forward_extrinsics()
        obj_pose = Pose(world[0].p_wo, world[0].q_wo)
        errs = []
        for seed in range(50):
            stream = gen_measurements(traj, world, sensor, seed=seed)
            for k in range(len(stream.t)):
                t_wi = Pose(stream.truth_pos[k], stream.truth_quat[k])
                t_wc = t_wi.compose(Pose(p_ic, q_ic))
                t_co = t_wc.inverse().compose(obj_pose)
                errs.append(stream.ticks[k][0].p_co - t_co.p)
        errs = np.array(errs)
        assert errs.shape[0] > 10_000
        for axis in range(3):
            assert abs(np.std(errs[:, axis]) / sigma_p - 1.0) < 0.03

    def test_rotation_noise_geodesic_distribution(self):
        # static trajectory: the true relative rotation is the constant
        # camera-to-world rotation, so the perturbation angle is exactly
        # the geodesic distance to it; for isotropic tangent noise that
        # angle is Maxwell(sigma) distributed
        traj = TrajectorySpec(duration=10.0)
        world = single_object_world((2.1, 0.0, 0.0))
        sigma = 0.05
        sensor = SensorSpec(sigma_p=0.0, sigma_theta=sigma)
        true_rot = rot_of(camera_forward_extrinsics()[1]).T  # R_co here
        angles = []
        for seed in range(50):
            stream = gen_measurements(traj, world, sensor, seed=seed)
            for k in range(len(stream.t)):
                m = stream.ticks[k][0]
                angles.append(np.linalg.norm(
                    log_so3(true_rot.T @ rot_of(m.q_co))))
        angles = np.array(angles)
        stat = kstest(angles, maxwell(scale=sigma).cdf)
        assert stat.pvalue > 0.01

    def test_episode_inflation_triggers_partial_rejection(self):
        traj = lively_traj(10.0)
        world = single_object_world()
        sensor = SensorSpec(sigma_p=0.02, sigma_theta=0.0875, mode="episodes",
                            episodes=[(2.0, 4.0, 8.0)])
        stream = gen_measurements(traj, world, sensor, seed=0)
        k_in = int(3.0 * sensor.cam_rate)
        k_out = int(6.0 * sensor.cam_rate)
        m_in, m_out = stream.ticks[k_in][0], stream.ticks[k_out][0]
        assert np.all(np.sqrt(m_in.var_theta) > AORP_TAU_THETA)
        assert_allclose(m_in.var_p, m_out.var_p)  # sigma_p untouched
        assert aorp(m_in).verdict is Verdict.REJECT_ROTATION
        assert aorp(m_out).verdict is Verdict.ACCEPT_ALL

    def test_mode_semantics(self):
        traj = lively_traj(6.0)
        world = single_object_world()
        episodes = [(2.0, 4.0, 8.0)]
        k_in = 60  # t = 3 s, inside the window
        exact = gen_measurements(traj, world, SensorSpec(
            sigma_p=0.02, sigma_theta=0.05, mode="exact",
            episodes=episodes), seed=1)
        fixed = gen_measurements(traj, world, SensorSpec(
            sigma_p=0.02, sigma_theta=0.05, mode="fixed",
            episodes=episodes), seed=1)
        epis = gen_measurements(traj, world, SensorSpec(
            sigma_p=0.02, sigma_theta=0.05, mode="episodes",
            episodes=episodes), seed=1)
        # exact ignores the schedule entirely
        assert_allclose(exact.ticks[k_in][0].var_theta, 0.05**2)
        # fixed reports the constants while the true noise is inflated
        assert_allclose(fixed.ticks[k_in][0].var_theta, 0.628**2)
        assert_allclose(fixed.ticks[k_in][0].var_p, 0.04**2)
        # episodes reports the inflated truth
        assert_allclose(epis.ticks[k_in][0].var_theta, 0.4**2)
        # inside the window, fixed and episodes share the same (inflated)
        # generating noise; exact does not
        assert np.array_equal(fixed.ticks[k_in][0].q_co,
                              epis.ticks[k_in][0].q_co)
        assert not np.array_equal(exact.ticks[k_in][0].q_co,
                                  epis.ticks[k_in][0].q_co)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SensorSpec(mode="bogus")

    @pytest.mark.parametrize("field, value", BAD_SPEC_VALUES,
                             ids=[field for field, _ in BAD_SPEC_VALUES])
    def test_spec_rejects_a_bad_value_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SensorSpec(**{field: value})
