"""Miniature Monte Carlo noise sweep (a 2x2 corner of the full grid, a few
runs per cell) comparing the direct and inverse measurement formulations.
It calls the CLI's `run_sweep_cells`; the full protocol is
`orekf sweep --config ... --parallel N`.
"""

import numpy as np

from orekf.cli import run_sweep_cells, sweep_stats
from orekf.config import RunConfig

runs = 5

tables = {}
for ftype in ("direct", "inverse"):
    cfg = RunConfig(preset="preset02", filter=ftype, imu_sigma_acc=0.15,
                    imu_sigma_gyro=0.008, runs_per_cell=runs,
                    sweep_sigma_p=(0.01, 0.05),
                    sweep_sigma_theta=(0.0175, 0.175))  # 1 and 10 degrees
    tables[ftype], _, _ = sweep_stats(cfg, run_sweep_cells(cfg, 1))

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
