"""Filter consistency: with the reported measurement covariance equal to the
generating one, the normalized estimation error squared sits near 1. Swap
in a fixed hand-tuned covariance on a scene with ambiguity episodes and the
number leaves the healthy band.
"""

import numpy as np

from orekf.metrics import anees
from orekf.presets import get_preset
from orekf.propagation import ImuNoise
from orekf.runner import FilterSetup, run_filter
from orekf.sim import SensorSpec, gen_imu, gen_measurements

N_RUNS = 25

preset = get_preset("preset01")
noise = ImuNoise()
vals = []
for seed in range(N_RUNS):
    imu = gen_imu(preset.trajectory, noise, 200.0, seed=seed)
    meas = gen_measurements(preset.trajectory, preset.world,
                            SensorSpec(sigma_p=0.02, sigma_theta=0.05,
                                       mode="exact"), seed=seed)
    setup = FilterSetup(imu_noise=noise)
    vals.append(anees(run_filter(imu, meas, setup)))
print(f"exact reporting, clean preset: position ANEES = "
      f"{np.mean(vals):.3f} over {N_RUNS} runs (target ~1)")

preset9 = get_preset("preset09")
noise9 = ImuNoise(sigma_acc=0.02, sigma_gyro=0.008)
vals_fixed = []
for seed in range(N_RUNS):
    imu = gen_imu(preset9.trajectory, noise9, 200.0, seed=seed)
    meas = gen_measurements(
        preset9.trajectory, preset9.world,
        SensorSpec(sigma_p=0.02, sigma_theta=0.0875, mode="fixed",
                   episodes=preset9.episodes, episode_excess=4.0),
        seed=seed)
    setup = FilterSetup(imu_noise=noise9)
    vals_fixed.append(anees(run_filter(imu, meas, setup)))
print(f"fixed (hand-tuned) covariance, episode preset: position ANEES = "
      f"{np.mean(vals_fixed):.3f}")
print("\nreading: a fixed covariance cannot track per-view error")
print("characteristics; the filter's reported uncertainty stops matching")
print("its actual errors (here: over-reported position noise -> ANEES far")
print("below 1, i.e. pessimistic covariance and wasted information).")
