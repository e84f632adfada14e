"""Miniature Monte Carlo noise sweep (a 2x2 corner of the full grid, a few
runs per cell) comparing the direct and inverse measurement formulations.
The full protocol lives in the CLI: `orekf sweep --config ... --parallel N`.
"""

import numpy as np

from orekf.cli import child_seed
from orekf.metrics import rmse_position
from orekf.presets import get_preset
from orekf.propagation import ImuNoise
from orekf.runner import FilterSetup, run_filter
from orekf.sim import SensorSpec, gen_imu, gen_measurements

preset = get_preset("preset02")
noise = ImuNoise(sigma_acc=0.15, sigma_gyro=0.008)
grid_p = (0.01, 0.05)
grid_t = (0.0175, 0.175)  # 1 and 10 degrees
runs = 5

tables = {}
for ftype in ("direct", "inverse"):
    setup = FilterSetup(imu_noise=noise, filter_type=ftype)
    table = np.zeros((2, 2))
    for i, sp in enumerate(grid_p):
        for j, st in enumerate(grid_t):
            vals = []
            for k in range(runs):
                seed = child_seed(0, i, j, k)
                imu = gen_imu(preset.trajectory, noise, 200.0, seed=seed)
                meas = gen_measurements(
                    preset.trajectory, preset.world,
                    SensorSpec(sigma_p=sp, sigma_theta=st, mode="exact"),
                    seed=seed)
                vals.append(rmse_position(run_filter(imu, meas, setup)))
            table[i, j] = np.mean(vals)
    tables[ftype] = table

print(f"mean position RMSE [m] over {runs} runs per cell "
      f"(rows sigma_p = 1/5 cm, cols sigma_theta = 1/10 deg)\n")
for ftype, table in tables.items():
    print(f"{ftype}:")
    print(np.round(table, 3), "\n")

ratios = tables["inverse"] / tables["direct"]
print("inverse / direct ratio:")
print(np.round(ratios, 2))
print("\nreading: at 1 degree the formulations agree; at 10 degrees the")
print("inverse filter pays a lever-arm penalty for inverting the rotation")
print("into its position measurement.")
