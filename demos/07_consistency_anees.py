"""Filter consistency: with the reported measurement covariance equal to the
generating one, the normalized estimation error squared sits near 1. Swap
in a fixed hand-tuned covariance on a scene with ambiguity episodes and the
number leaves the healthy band.
"""

import numpy as np

from orekf.cli import execute_run
from orekf.config import RunConfig
from orekf.metrics import anees

N_RUNS = 25


def mean_anees(cfg):
    return np.mean([anees(execute_run(cfg, seed)[2])
                    for seed in range(N_RUNS)])


exact = RunConfig(preset="preset01", sigma_p=(0.02,) * 3,
                  sigma_theta=(0.05,) * 3)
print(f"exact reporting, clean preset: position ANEES = "
      f"{mean_anees(exact):.3f} over {N_RUNS} runs (target ~1)")

fixed = RunConfig(preset="preset09", sigma_mode="fixed", sigma_p=(0.02,) * 3,
                  sigma_theta=(0.0875,) * 3, imu_sigma_gyro=0.008)
print(f"fixed (hand-tuned) covariance, episode preset: position ANEES = "
      f"{mean_anees(fixed):.3f}")
print("\nreading: a fixed covariance cannot track per-view error")
print("characteristics; the filter's reported uncertainty stops matching")
print("its actual errors (here: over-reported position noise -> ANEES far")
print("below 1, i.e. pessimistic covariance and wasted information).")
