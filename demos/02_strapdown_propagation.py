"""Strapdown propagation quality: dead-reckon a smooth 10-second trajectory
from a perfect IMU stream and compare against analytic ground truth; then
watch the covariance trace grow once realistic noise densities are on.
"""

import numpy as np

from orekf.metrics import rmse_position
from orekf.propagation import ImuNoise
from orekf.runner import FilterSetup, run_filter
from orekf.sim import MeasurementStream, SensorSpec, TrajectorySpec, \
    gen_imu, gen_measurements
from orekf.geom3 import QUAT_IDENTITY
from orekf.state import ObjectState

traj = TrajectorySpec(duration=10.0,
                      pos_amp=[0.3, 0.2, 0.1], pos_freq=[0.2, 0.3, 0.25],
                      eul_amp=[0.15, 0.1, 0.08], eul_freq=[0.15, 0.1, 0.2])
world = [ObjectState("box", np.array([1.5, 0, 0]), QUAT_IDENTITY.copy())]

quiet = ImuNoise(0, 0, 0, 0)
imu = gen_imu(traj, quiet, 200.0, seed=0)
meas = gen_measurements(traj, world, SensorSpec(), seed=0)
no_updates = MeasurementStream(meas.t, [[] for _ in meas.ticks],
                               meas.truth_pos, meas.truth_vel,
                               meas.truth_quat)

setup = FilterSetup(imu_noise=quiet)
rec = run_filter(imu, no_updates, setup)
err = np.linalg.norm(rec.p_est - rec.p_true, axis=1)
print(f"perfect-IMU dead reckoning over 10 s: final error "
      f"{err[-1] * 1000:.4f} mm, max {np.max(err) * 1000:.4f} mm")

noise = ImuNoise()  # consumer-grade densities
imu_n = gen_imu(traj, noise, 200.0, seed=0)
setup_n = FilterSetup(imu_noise=noise)
rec_n = run_filter(imu_n, no_updates, setup_n)
print(f"noisy-IMU dead reckoning: RMSE {rmse_position(rec_n):.3f} m "
      f"(no corrections -> drift)")
print("position sigma from the covariance at t = 2, 5, 10 s:",
      ["%.3f m" % np.sqrt(np.trace(rec_n.cov_pos[int(t * 20)]) / 3)
       for t in (2, 5, 10)])
print("-> the filter knows it is drifting; object-relative updates are "
      "what keeps it bounded (see demo 04)")
