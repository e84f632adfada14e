import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from orekf.gating import METHODS, PARTIAL_METHODS, GatingConfig
from orekf.geom3 import exp_so3, quat_mul, quat_of
from orekf.propagation import ImuNoise
from orekf.runner import MODELS, FilterSetup, run_filter
from orekf.sim import ImuStream, MeasurementStream, SensorSpec, \
    TrajectorySpec, gen_imu, gen_measurements
from tests.test_sim import lively_traj, single_object_world


def empty_ticks(meas: MeasurementStream) -> MeasurementStream:
    return MeasurementStream(meas.t, [[] for _ in meas.ticks],
                             meas.truth_pos, meas.truth_vel, meas.truth_quat)


# every (filter, gating method) pair that FilterSetup accepts
SETUPS = [(ftype, method) for ftype, model in MODELS.items()
          for method in METHODS
          if model.partial_ok or method not in PARTIAL_METHODS]


class TestDeadReckoning:
    def test_zero_noise_stream_reproduces_truth_1mm_over_10s(self):
        traj = lively_traj(10.0)
        quiet = ImuNoise(0, 0, 0, 0)
        imu = gen_imu(traj, quiet, 200.0, seed=0)
        meas = empty_ticks(gen_measurements(traj, single_object_world(),
                                            SensorSpec(), seed=0))
        rec = run_filter(imu, meas, FilterSetup(imu_noise=quiet))
        err = np.linalg.norm(rec.p_est - rec.p_true, axis=1)
        assert np.max(err) < 1e-3


class TestClosedLoop:
    def test_quaternion_norm_and_covariance_health(self):
        traj = lively_traj(5.0)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed=1)
        meas = gen_measurements(traj, single_object_world(),
                                SensorSpec(sigma_p=0.02, sigma_theta=0.05),
                                seed=1)
        rec = run_filter(imu, meas, FilterSetup(imu_noise=noise))
        norms = np.linalg.norm(rec.q_est, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        for k in (10, 50, 100):
            assert np.min(np.linalg.eigvalsh(rec.cov_pos[k])) > 0

    def test_determinism(self):
        traj = lively_traj(3.0)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed=2)
        meas = gen_measurements(traj, single_object_world(),
                                SensorSpec(sigma_p=0.02, sigma_theta=0.05),
                                seed=2)
        r1 = run_filter(imu, meas, FilterSetup(imu_noise=noise))
        r2 = run_filter(imu, meas, FilterSetup(imu_noise=noise))
        assert np.array_equal(r1.p_est, r2.p_est)
        assert np.array_equal(r1.q_est, r2.q_est)
        assert np.array_equal(r1.cov_pos, r2.cov_pos)

    def test_divergence_marking_truncates(self):
        traj = lively_traj(5.0)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed=3)
        meas = gen_measurements(traj, single_object_world(),
                                SensorSpec(sigma_p=0.02, sigma_theta=0.05),
                                seed=3)
        rec = run_filter(imu, meas, FilterSetup(
            imu_noise=noise, divergence_bound=1e-4))
        assert rec.diverged
        assert rec.n_ticks < len(meas.t)

    @pytest.mark.filterwarnings("error")
    def test_nan_estimate_is_divergence(self):
        traj = lively_traj(2.0)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed=3)
        imu.acc[45] = np.nan  # averaged into the batch ending at tick 5
        meas = gen_measurements(traj, single_object_world(),
                                SensorSpec(sigma_p=0.02, sigma_theta=0.05),
                                seed=3)
        rec = run_filter(imu, meas, FilterSetup(imu_noise=noise))
        assert rec.diverged
        assert rec.n_ticks == 6  # ticks 0 to 5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sample", [1, 100])
    def test_overflowing_rate_diverges_without_warnings(self, sample):
        traj = lively_traj(1.0)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed=3)
        imu.gyro[sample, 0] = 1e300
        meas = gen_measurements(traj, single_object_world(),
                                SensorSpec(sigma_p=0.02, sigma_theta=0.05),
                                seed=3)
        rec = run_filter(imu, meas, FilterSetup(imu_noise=noise))
        assert rec.diverged

    def test_late_first_sight_initializes_anchor_late(self):
        traj = lively_traj(3.0)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed=4)
        meas = gen_measurements(traj, single_object_world(),
                                SensorSpec(sigma_p=0.02, sigma_theta=0.05),
                                seed=4)
        # blank out the first second of frames
        ticks = [([] if k < 20 else f) for k, f in enumerate(meas.ticks)]
        meas2 = MeasurementStream(meas.t, ticks, meas.truth_pos,
                                  meas.truth_vel, meas.truth_quat)
        rec = run_filter(imu, meas2, FilterSetup(imu_noise=noise))
        assert rec.counts["initialized"] == 1
        assert not rec.diverged

    def test_degenerate_rotation_rejected_position_still_used(self):
        traj = TrajectorySpec(duration=1.0)
        quiet = ImuNoise(0, 0, 0, 0)
        imu = gen_imu(traj, quiet, 200.0, seed=5)
        meas = gen_measurements(traj, single_object_world((1.6, 0.0, 0.0)),
                                SensorSpec(sigma_p=0.0, sigma_theta=0.0),
                                seed=5)
        # flip every measured rotation after the first frame by pi
        flip = quat_of(exp_so3([0.0, 0.0, np.pi - 1e-9]))
        for k, frame in enumerate(meas.ticks):
            if k == 0:
                continue
            for m in frame:
                m.q_co = quat_mul(m.q_co, flip)
        rec = run_filter(imu, meas, FilterSetup(imu_noise=quiet))
        assert rec.counts["rejected_rotation"] > 0
        assert rec.counts["updates"] > 0
        assert not rec.diverged

    def test_non_monotone_timestamps_rejected(self):
        traj = lively_traj(1.0)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed=6)
        imu.t[5] = imu.t[4]
        meas = gen_measurements(traj, single_object_world(), SensorSpec(),
                                seed=6)
        with pytest.raises(ValueError):
            run_filter(imu, meas, FilterSetup(imu_noise=noise))


class TestEdgeCases:
    def test_stream_without_camera_ticks_is_rejected(self):
        traj = lively_traj(1.0)
        imu = gen_imu(traj, ImuNoise(), 200.0, seed=8)
        empty = MeasurementStream(np.zeros(0), [], np.zeros((0, 3)),
                                  np.zeros((0, 3)), np.zeros((0, 4)))
        with pytest.raises(ValueError, match="empty"):
            run_filter(imu, empty, FilterSetup())

    def test_stream_without_imu_samples_is_rejected(self):
        meas = gen_measurements(lively_traj(1.0), single_object_world(),
                                SensorSpec(), seed=8)
        empty = ImuStream(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            run_filter(empty, meas, FilterSetup())

    def test_imu_stream_shorter_than_camera_stream_is_rejected(self):
        # 201 IMU samples over 1 s against 41 camera ticks over 2 s: the
        # sample count divides, but tick k falls on IMU sample 5k at k/40 s
        imu = gen_imu(lively_traj(1.0), ImuNoise(), 200.0, seed=8)
        meas = gen_measurements(lively_traj(2.0), single_object_world(),
                                SensorSpec(), seed=8)
        with pytest.raises(ValueError, match="camera tick 1 at t=0.05 "):
            run_filter(imu, meas, FilterSetup())

    def test_uneven_imu_spacing_is_rejected(self):
        traj = lively_traj(1.0)
        imu = gen_imu(traj, ImuNoise(), 200.0, seed=8)
        t = imu.t.copy()
        t[3] += 1e-6
        meas = gen_measurements(traj, single_object_world(), SensorSpec(),
                                seed=8)
        with pytest.raises(ValueError, match="evenly spaced"):
            run_filter(ImuStream(t, imu.acc, imu.gyro), meas,
                       FilterSetup())

    @settings(max_examples=10, deadline=None)
    @given(hs.integers(0, 2**32 - 1), hs.sampled_from([0.05, 0.4, 1.0]))
    def test_all_empty_frames_dead_reckon_alike_in_every_setup(self, seed,
                                                               duration):
        traj = lively_traj(duration)
        noise = ImuNoise()
        imu = gen_imu(traj, noise, 200.0, seed)
        meas = empty_ticks(gen_measurements(traj, single_object_world(),
                                            SensorSpec(), seed))
        recs = [run_filter(imu, meas, FilterSetup(
                    imu_noise=noise, filter_type=ftype,
                    gating=GatingConfig(method=method)))
                for ftype, method in SETUPS]
        for rec in recs:
            assert rec.n_ticks == len(meas.t)
            assert not any(rec.counts.values())
            assert np.array_equal(rec.p_est, recs[0].p_est)
            assert np.array_equal(rec.q_est, recs[0].q_est)
            assert np.array_equal(rec.cov_pos, recs[0].cov_pos)
        assert np.all(np.linalg.eigvalsh(recs[0].cov_pos)[:, 0] > 0)

    @settings(max_examples=20, deadline=None)
    @given(hs.integers(0, 2**32 - 1), hs.sampled_from(SETUPS),
           hs.sampled_from([(1.5, 0.0, 0.0), (-1.5, 0.0, 0.0)]))
    def test_single_tick_keeps_the_initial_estimate(self, seed, setup,
                                                    object_position):
        traj = lively_traj(0.0)
        imu = gen_imu(traj, ImuNoise(), 200.0, seed)
        meas = gen_measurements(traj, single_object_world(object_position),
                                SensorSpec(), seed)
        assert len(meas.t) == 1
        ftype, method = setup
        rec = run_filter(imu, meas, FilterSetup(
            filter_type=ftype, gating=GatingConfig(method=method)))
        assert rec.n_ticks == 1 and not rec.diverged
        assert np.array_equal(rec.p_est[0], meas.truth_pos[0])
        assert np.array_equal(rec.q_est[0], meas.truth_quat[0])
        counts = dict(rec.counts)
        assert counts.pop("initialized") == len(meas.ticks[0])
        assert not any(counts.values())


class TestSetupValidation:
    def test_inverse_filter_rejects_partial_gating(self):
        for method in ("chi2p", "aorp"):
            with pytest.raises(ValueError):
                FilterSetup(filter_type="inverse",
                            gating=GatingConfig(method=method))

    def test_inverse_filter_accepts_full_gating(self):
        for method in ("none", "chi2", "aor"):
            FilterSetup(filter_type="inverse",
                        gating=GatingConfig(method=method))

    def test_unknown_filter_type(self):
        with pytest.raises(ValueError):
            FilterSetup(filter_type="ukf")

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
    def test_divergence_bound_must_be_positive(self, bound):
        with pytest.raises(ValueError, match="divergence_bound"):
            FilterSetup(divergence_bound=bound)


class TestInverseEquivalenceZeroNoise:
    def test_both_filters_near_truth_without_noise(self):
        traj = lively_traj(5.0)
        quiet = ImuNoise(0, 0, 0, 0)
        imu = gen_imu(traj, quiet, 200.0, seed=7)
        meas = gen_measurements(traj, single_object_world(),
                                SensorSpec(sigma_p=0.0, sigma_theta=0.0),
                                seed=7)
        from orekf.metrics import rmse_position
        rms = {}
        for ftype in ("direct", "inverse"):
            rec = run_filter(imu, meas, FilterSetup(imu_noise=quiet,
                                                    filter_type=ftype))
            rms[ftype] = rmse_position(rec)
        assert rms["direct"] < 0.001
        assert rms["inverse"] < 0.001
        assert abs(rms["direct"] - rms["inverse"]) < 1e-3
