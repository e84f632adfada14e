"""Simulate one full run on a bundled preset and report the standard
metrics, all through the library API (the CLI wraps exactly this)."""

import numpy as np

from orekf.metrics import anees, max_position_error, rmse_orientation, \
    rmse_position
from orekf.presets import get_preset
from orekf.propagation import ImuNoise
from orekf.runner import FilterSetup, run_filter
from orekf.sim import SensorSpec, gen_imu, gen_measurements

preset = get_preset("preset01")
noise = ImuNoise()
sensor = SensorSpec(sigma_p=0.02, sigma_theta=0.05, mode="exact")

imu = gen_imu(preset.trajectory, noise, 200.0, seed=42)
meas = gen_measurements(preset.trajectory, preset.world, sensor, seed=42)

setup = FilterSetup(imu_noise=noise, filter_type="direct")
record = run_filter(imu, meas, setup)

print(f"preset01, 20 s, 2 objects, sigma_p=2 cm, sigma_theta~3 deg")
print(f"  diverged:            {record.diverged}")
print(f"  position RMSE:       {rmse_position(record) * 100:.2f} cm")
print(f"  orientation RMSE:    {rmse_orientation(record):.3f} deg")
print(f"  max position error:  {max_position_error(record) * 100:.2f} cm")
print(f"  position ANEES:      {anees(record, 'position'):.3f}  (~1 = consistent)")
print(f"  orientation ANEES:   {anees(record, 'orientation'):.3f}")
print(f"  update bookkeeping:  {record.counts}")

err = np.linalg.norm(record.p_est - record.p_true, axis=1)
print("\nposition error profile (cm) at t = 0, 5, 10, 15, 20 s:",
      np.round(err[::100] * 100, 2))
