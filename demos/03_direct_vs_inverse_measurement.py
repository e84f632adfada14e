"""The core idea: using the camera-to-object pose as measured keeps the
position and rotation channels independent, while inverting it (camera pose
in the object frame) lets rotation errors corrupt the position residual.
"""

import numpy as np

from orekf import update_direct as ud
from orekf import update_inverse as ui
from orekf.geom3 import QUAT_IDENTITY, exp_so3, quat_mul, quat_of
from orekf.state import FullState, ObjectState

# robot and camera at the origin, one mug 2 m ahead
obj = ObjectState("mug", np.array([2.0, 0.0, 0.0]), QUAT_IDENTITY)
state = FullState.from_parts(np.zeros(3), np.zeros(3), QUAT_IDENTITY,
                             np.zeros(3), np.zeros(3), np.zeros(3),
                             QUAT_IDENTITY, [obj])

clean = ud.PoseMeasurement("mug",
                           ud.predicted_relative_position(state, obj),
                           ud.predicted_relative_quat(state, obj),
                           np.array([1e-4, 4e-4, 9e-4]), np.full(3, 1e-4))
print("consistent measurement: both residuals are zero")
print("  direct  z_p:", ud.residual_position(state, obj, clean))
print("  inverse z_p:", ui.residual_position(state, obj,
                                             ui.invert_measurement(clean)))

# now corrupt ONLY the measured rotation by 15 degrees
bad_rot = ud.PoseMeasurement(
    "mug", clean.p_co.copy(),
    quat_mul(clean.q_co, quat_of(exp_so3([0.0, np.deg2rad(15), 0.0]))),
    clean.var_p.copy(), clean.var_theta.copy())

print("\nsame measurement with a 15-degree rotation error:")
print("  direct  z_p:", ud.residual_position(state, obj, bad_rot),
      " <- untouched (bit-identical)")
print("  inverse z_p:", np.round(ui.residual_position(
    state, obj, ui.invert_measurement(bad_rot)), 4),
    " <- ~0.5 m of phantom position error at a 2 m range")

print("\nJacobian structure tells the same story:")
h_p_dir, _ = ud.jacobians(state, 0)
h_p_inv, _ = ui.jacobians(state, 0)
print("  direct  |dz_p / dtheta_object| =",
      np.max(np.abs(h_p_dir[:, 24:27])))
print("  inverse |dz_p / dtheta_object| =",
      np.max(np.abs(h_p_inv[:, 24:27])),
      " (lever-arm sized: the coupling the reformulation removes)")

print("\nmeasurement covariance: the direct form needs no rotation either;")
inv = ui.invert_measurement(bad_rot)
print("  inverted position covariance block:\n", np.round(inv.cov_p, 6))
print("  (rotated by the measured rotation; eigenvalues preserved but "
      "axes mixed)")
