"""Filter execution loop: consume an IMU stream and a measurement stream,
produce a RunRecord. The same loop serves freshly simulated and replayed
streams, so replays are bit-identical to the original run."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import gating as gt
from . import state as st
from . import update_direct as ud
from . import update_inverse as ui
from .matching import initialize_object, match, project_measurement
from .metrics import RunRecord
from .propagation import ImuNoise, propagate_batch
from .sim import ImuStream, MeasurementStream, camera_forward_extrinsics, \
    timing_fault
from .state import CoreState, FullState

log = logging.getLogger(__name__)

INIT_VAR = 1e-12

# The filters by name: the one place that knows which ones exist.
MODELS = {"direct": ud.DIRECT, "inverse": ui.INVERSE}


@dataclass
class FilterSetup:
    """Everything the filter loop needs besides the data streams; the camera
    mount is camera_forward_extrinsics(). match_gate bounds the association
    cost |dp| [m] + geodesic [rad] of a measurement and an object."""

    imu_noise: ImuNoise = field(default_factory=ImuNoise)
    filter_type: str = "direct"
    gating: gt.GatingConfig = field(default_factory=gt.GatingConfig)
    match_gate: float = 6.0
    divergence_bound: float = 10.0

    def __post_init__(self):
        if self.filter_type not in MODELS:
            raise ValueError(f"unknown filter type {self.filter_type!r}; "
                             f"expected one of {tuple(MODELS)}")
        if (not MODELS[self.filter_type].partial_ok
                and self.gating.method in gt.PARTIAL_METHODS):
            raise ValueError(
                f"the {self.filter_type} filter couples position and "
                f"rotation; it cannot gate with {self.gating.method!r}")
        if not self.match_gate > 0:
            raise ValueError("match_gate must be positive")
        if not self.divergence_bound > 0:
            raise ValueError("divergence_bound must be positive")


def _initial_state(meas_stream: MeasurementStream) -> tuple:
    core = CoreState(meas_stream.truth_pos[0].copy(),
                     meas_stream.truth_vel[0].copy(),
                     meas_stream.truth_quat[0].copy(),
                     np.zeros(3), np.zeros(3))
    state = FullState(core, camera_forward_extrinsics(), [])
    cov = np.eye(st.BASE_DIM) * INIT_VAR
    return state, cov


def _update_frame(state, cov, frame, pairs, setup: FilterSetup, counts):
    """Gate and apply every matched measurement of one camera frame.

    The frame's innovation covariance S = H P H^T + R and H P are formed
    once; gating tests diagonal blocks of S and the update uses the
    principal submatrix of S and the rows of H P that gating kept.
    """
    model = MODELS[setup.filter_type]
    measurements = [frame[mi] for mi, _ in pairs]
    stacked, degenerate = ud.stack_frame(
        state, [(oi, m) for (_, oi), m in zip(pairs, measurements)], model)
    s, hp = ud.innovation(cov, stacked)
    decisions = gt.gate_frame(setup.gating, s, stacked.residual, measurements,
                              degenerate, partial_ok=model.partial_ok)
    for decision in decisions:
        if decision.verdict is gt.Verdict.ACCEPT_ALL:
            counts["accepted"] += 1
        else:
            counts["rejected_" + decision.verdict.value[7:]] += 1
    counts["degenerate"] += sum(degenerate)

    keep = ud.kept_rows(decisions)
    if keep.size == 0:
        return state, cov
    if keep.size < stacked.residual.size:
        stacked = stacked.rows(keep)
        s, hp = s[np.ix_(keep, keep)], hp[keep]
    counts["updates"] += 1
    state, cov, applied = ud.joseph_update(state, cov, stacked, s, hp)
    if not applied:
        counts["skipped_updates"] += 1
    return state, cov


def run_filter(imu: ImuStream, meas_stream: MeasurementStream,
               setup: FilterSetup) -> RunRecord:
    """Run the configured filter over the streams.

    The streams must keep the timing of sim.timing_fault, or ValueError
    with its message. Between camera ticks the consecutive IMU samples are
    averaged pairwise (trapezoidal measurement averaging) and propagated in
    one batch. The run stops early and is marked diverged when the
    position error exceeds the divergence bound or is not a number.
    Objects are numbered in the order they are initialized.
    """
    if len(meas_stream.t) == 0 or len(imu.t) == 0:
        raise ValueError("a stream is empty: the filter starts from a camera "
                         "tick and the IMU sample at its time")
    fault = timing_fault(imu.t, meas_stream.t)
    if fault:
        raise ValueError(fault[2])
    n_cam = len(meas_stream.t) - 1
    ratio = (len(imu.t) - 1) // n_cam if n_cam else 0
    dt = float(imu.t[1] - imu.t[0]) if ratio else 0.0

    state, cov = _initial_state(meas_stream)
    counts = {"accepted": 0, "rejected_all": 0, "rejected_position": 0,
              "rejected_rotation": 0, "degenerate": 0, "updates": 0,
              "skipped_updates": 0, "initialized": 0}
    rec_pe, rec_qe, rec_cp, rec_ca = [], [], [], []
    diverged = False

    # a diverging estimate overflows to inf and NaN; the divergence test
    # below reports that, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_cam + 1):
            if k > 0:
                i0, i1 = (k - 1) * ratio, k * ratio
                # midpoint-representative samples from consecutive endpoints
                acc = 0.5 * (imu.acc[i0:i1] + imu.acc[i0 + 1:i1 + 1])
                gyro = 0.5 * (imu.gyro[i0:i1] + imu.gyro[i0 + 1:i1 + 1])
                state, cov = propagate_batch(state, cov, acc, gyro, dt,
                                             setup.imu_noise)

            frame = meas_stream.ticks[k]
            if frame:
                projected = [project_measurement(state.core, state.extr, m)
                             for m in frame]
                pairs, unmatched = match(projected, state.objects,
                                         setup.match_gate)
                for mi in unmatched:
                    state, cov = initialize_object(state, cov, frame[mi])
                    counts["initialized"] += 1
                if pairs:
                    state, cov = _update_frame(state, cov, frame, pairs,
                                               setup, counts)

            rec_pe.append(state.core.p_wi.copy())
            rec_qe.append(state.core.q_wi.copy())
            rec_cp.append(cov[st.POS, st.POS].copy())
            rec_ca.append(cov[st.ATT, st.ATT].copy())

            err = np.linalg.norm(state.core.p_wi - meas_stream.truth_pos[k])
            if not err <= setup.divergence_bound:
                diverged = True
                log.info("diverged at t=%.2f (|e|=%.2f m)", meas_stream.t[k],
                         err)
                break

    n = len(rec_pe)
    return RunRecord(meas_stream.t[:n].copy(),
                     meas_stream.truth_pos[:n].copy(),
                     meas_stream.truth_quat[:n].copy(), np.array(rec_pe),
                     np.array(rec_qe), np.array(rec_cp), np.array(rec_ca),
                     diverged=diverged, counts=counts)
