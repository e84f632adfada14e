"""Object-relative error-state EKF with direct 6-DoF pose measurements.

The library fuses IMU strapdown propagation with per-image relative object
pose measurements (position + rotation with per-axis reported uncertainty),
supports the baseline inverted-measurement formulation for comparison, and
ships chi-square and uncertainty-threshold outlier rejection in full and
partial (position-only / rotation-only) variants, plus a deterministic
simulation and Monte Carlo campaign harness.
"""

from .gating import GatingConfig, GatingDecision, Verdict
from .metrics import RunRecord, anees, max_position_error, rmse_orientation, \
    rmse_position
from .propagation import ImuNoise, propagate_batch
from .runner import FilterSetup, run_filter
from .sim import SensorSpec, TrajectorySpec, camera_forward_extrinsics, \
    gen_imu, gen_measurements
from .state import FullState, ObjectState, add_object, inject_error
from .update_direct import PoseMeasurement

__all__ = [
    "ImuNoise",
    "propagate_batch",
    "FullState",
    "ObjectState",
    "add_object",
    "inject_error",
    "PoseMeasurement",
    "GatingConfig",
    "GatingDecision",
    "Verdict",
    "RunRecord",
    "anees",
    "max_position_error",
    "rmse_orientation",
    "rmse_position",
    "FilterSetup",
    "run_filter",
    "SensorSpec",
    "TrajectorySpec",
    "camera_forward_extrinsics",
    "gen_imu",
    "gen_measurements",
]
