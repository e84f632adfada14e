"""Outlier rejection on a scene with ambiguity episodes: for 30% of the run
the object's viewpoint is ambiguous, the sensor's reported rotation sigma
spikes above both thresholds, and the true rotation errors exceed even the
raised report. Compare all five gating strategies on identical data.
"""

import numpy as np

from orekf.cli import execute_run
from orekf.config import RunConfig
from orekf.metrics import rmse_position
from orekf.presets import get_preset

preset = get_preset("preset09")  # single mug + two ambiguity windows

print("episode windows:", preset.episodes)
print(f"reported rotation sigma inside a window: "
      f"{0.0875 * preset.episodes[0][2]:.3f} rad "
      f"(> 0.35 full-rejection and > 0.175 partial-rejection thresholds)\n")

print(f"{'method':8s} {'mean RMSE [m]':>14s} {'diverged':>9s}   verdict counts")
for method in ("none", "chi2", "chi2p", "aor", "aorp"):
    cfg = RunConfig(preset="preset09", gating=method, sigma_mode="episodes",
                    sigma_p=(0.02,) * 3, sigma_theta=(0.0875,) * 3,
                    imu_sigma_gyro=0.008)
    rmses, div = [], 0
    for seed in range(8):
        _, _, rec = execute_run(cfg, seed)
        if rec.diverged:
            div += 1
        else:
            rmses.append(rmse_position(rec))
    reject = {k: v for k, v in rec.counts.items() if k.startswith("rejected")}
    print(f"{method:8s} {np.mean(rmses) if rmses else float('nan'):14.4f} "
          f"{div:9d}   {reject}")

print("\nreading: full rejection (aor) dead-reckons through every episode;")
print("no gating swallows rotation outliers; partial rejection (aorp) keeps")
print("the clean position stream and drops only the ambiguous rotations.")
