"""Filter execution loop: consume an IMU stream and a measurement stream,
produce a RunRecord. Several runs can step through the loop in lockstep
and share stacked kernel calls (run_lockstep); run_filter is its one-run
case. The same loop serves freshly simulated and replayed streams, so
replays are bit-identical to the original run."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import gating as gt
from . import state as st
from . import update_direct as ud
from . import update_inverse as ui
from .matching import camera_frame, initialize_object, match, \
    project_measurement
from .metrics import RunRecord
from .propagation import ImuNoise, propagate_batch
from .sim import ImuStream, MeasurementStream, camera_forward_extrinsics, \
    timing_fault
from .state import FullState

log = logging.getLogger(__name__)

INIT_VAR = 1e-12
DIVERGENCE_BOUND = 10.0    # m: a larger position error ends the run

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


class _Run:
    """One run's streams and loop state."""

    def __init__(self, imu: ImuStream, meas_stream: MeasurementStream):
        if len(meas_stream.t) == 0 or len(imu.t) == 0:
            raise ValueError("a stream is empty: the filter starts from a "
                             "camera tick and the IMU sample at its time")
        fault = timing_fault(imu.t, meas_stream.t)
        if fault:
            raise ValueError(fault[2])
        self.meas = meas_stream
        # midpoint-representative samples of consecutive endpoints
        # (trapezoidal measurement averaging)
        self.mid_acc = 0.5 * (imu.acc[:-1] + imu.acc[1:])
        self.mid_gyro = 0.5 * (imu.gyro[:-1] + imu.gyro[1:])
        self.n_cam = len(meas_stream.t) - 1
        self.ratio = (len(imu.t) - 1) // self.n_cam if self.n_cam else 0
        self.dt = float(imu.t[1] - imu.t[0]) if self.ratio else 0.0
        self.state = FullState.from_parts(
            meas_stream.truth_pos[0], meas_stream.truth_vel[0],
            meas_stream.truth_quat[0], np.zeros(3), np.zeros(3),
            *camera_forward_extrinsics(), [])
        self.cov = np.eye(st.BASE_DIM) * INIT_VAR
        self.counts = {"accepted": 0, "rejected_all": 0,
                       "rejected_position": 0, "rejected_rotation": 0,
                       "degenerate": 0, "updates": 0, "skipped_updates": 0,
                       "initialized": 0}
        self.rec_pe, self.rec_qe, self.rec_cp, self.rec_ca = [], [], [], []
        self.diverged = self.done = False

    def samples(self, k: int):
        """The midpoint IMU samples of camera interval k."""
        i0, i1 = (k - 1) * self.ratio, k * self.ratio
        return self.mid_acc[i0:i1], self.mid_gyro[i0:i1]

    def record(self, k: int):
        """Record tick k; mark the run diverged and done when the position
        error exceeds DIVERGENCE_BOUND or is not a number."""
        p_wi = self.state.p_wi
        self.rec_pe.append(p_wi.copy())
        self.rec_qe.append(self.state.q_wi.copy())
        self.rec_cp.append(self.cov[st.POS, st.POS].copy())
        self.rec_ca.append(self.cov[st.ATT, st.ATT].copy())
        err = np.linalg.norm(p_wi - self.meas.truth_pos[k])
        if not err <= DIVERGENCE_BOUND:
            self.diverged = self.done = True
            log.info("diverged at t=%.2f (|e|=%.2f m)", self.meas.t[k], err)

    def run_record(self) -> RunRecord:
        meas, n = self.meas, len(self.rec_pe)
        return RunRecord(meas.t[:n].copy(), meas.truth_pos[:n].copy(),
                         meas.truth_quat[:n].copy(), np.array(self.rec_pe),
                         np.array(self.rec_qe), np.array(self.rec_cp),
                         np.array(self.rec_ca), diverged=self.diverged,
                         counts=self.counts)


class _Frame:
    """One run's matched measurements of a camera frame on their way
    through innovation, gating and the update, which replaces state and
    cov."""

    def __init__(self, state, cov, counts, matches, model):
        self.state, self.cov, self.counts = state, cov, counts
        self.measurements = [m for *_, m in matches]
        self.stacked, self.degenerate = ud.stack_frame(state, matches, model)
        self.partial_ok = model.partial_ok
        self.s = self.hp = None


def _groups(items, key):
    """items grouped by key(item), in order of first appearance."""
    if len(items) < 2:
        return [items] if items else []
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups.values()


def _shape(frame: _Frame):
    return frame.stacked.jacobian.shape


def _associate(run: _Run, frame, match_gate: float):
    """Match the frame's measurements to the run's objects and initialize
    the unmatched ones; returns the matches as stack_frame takes them,
    (object index, object, measurement) in measurement order."""
    camera, objects = camera_frame(run.state), run.state.objects
    pairs, unmatched = match([project_measurement(camera, m) for m in frame],
                             objects, match_gate)
    for mi in unmatched:
        run.state, run.cov = initialize_object(run.state, run.cov, frame[mi])
        run.counts["initialized"] += 1
    return [(oi, objects[oi], frame[mi]) for mi, oi in pairs]


def _propagate(runs, k: int, noise: ImuNoise):
    """Propagate every run through camera interval k; runs with the same
    timing and error dimension step as one stack."""
    for group in _groups(runs, lambda r: (r.ratio, r.dt, r.cov.shape)):
        samples = [r.samples(k) for r in group]
        if len(group) == 1:
            run, (acc, gyro) = group[0], samples[0]
            run.state, run.cov = propagate_batch(run.state, run.cov, acc,
                                                 gyro, run.dt, noise)
            continue
        states, covs = propagate_batch(
            [r.state for r in group], np.stack([r.cov for r in group]),
            [a for a, _ in samples], [g for _, g in samples], group[0].dt,
            noise)
        for run, state, cov in zip(group, states, covs):
            run.state, run.cov = state, cov


def _innovations(frames):
    """S and H P of every frame."""
    for group in _groups(frames, _shape):
        if len(group) == 1:
            f = group[0]
            f.s, f.hp = ud.innovation(f.cov, f.stacked)
            continue
        s, hp = ud.innovation(np.stack([f.cov for f in group]),
                              ud.stack_updates([f.stacked for f in group]))
        for f, s_f, hp_f in zip(group, s, hp):
            f.s, f.hp = s_f, hp_f


def _gate(frame: _Frame, gating: gt.GatingConfig) -> bool:
    """Gate every match of the frame and keep the rows gating let through;
    False when it rejected them all."""
    counts, stacked = frame.counts, frame.stacked
    decisions = gt.gate_frame(gating, frame.s, stacked.residual,
                              frame.measurements, frame.degenerate,
                              partial_ok=frame.partial_ok)
    for decision in decisions:
        if decision.verdict is gt.Verdict.ACCEPT_ALL:
            counts["accepted"] += 1
        else:
            counts["rejected_" + decision.verdict.value[7:]] += 1
    counts["degenerate"] += sum(frame.degenerate)

    keep = ud.kept_rows(decisions)
    if not keep:
        return False
    if len(keep) < stacked.residual.size:
        frame.stacked = stacked.rows(keep)
        frame.s, frame.hp = frame.s[np.ix_(keep, keep)], frame.hp[keep]
    counts["updates"] += 1
    return True


def _joseph(frames):
    """The EKF update of every gated frame."""
    for group in _groups(frames, _shape):
        if len(group) == 1:
            f = group[0]
            f.state, f.cov, applied = ud.joseph_update(f.state, f.cov,
                                                       f.stacked, f.s, f.hp)
            applied = [applied]
        else:
            states, covs, applied = ud.joseph_update(
                [f.state for f in group], np.stack([f.cov for f in group]),
                ud.stack_updates([f.stacked for f in group]),
                np.stack([f.s for f in group]),
                np.stack([f.hp for f in group]))
            for f, state, cov in zip(group, states, covs):
                f.state, f.cov = state, cov
        for f, ok in zip(group, applied):
            if not ok:
                f.counts["skipped_updates"] += 1


def _update_frames(frames, gating: gt.GatingConfig):
    """Gate and apply the matched measurements of each frame, one frame per
    run.

    A frame's innovation covariance S = H P H^T + R and H P are formed
    once; gating tests diagonal blocks of S and the update uses the
    principal submatrix of S and the rows of H P that gating kept. Frames
    of the same shape (rows, error dimension) share one stacked call of
    the innovation and of the update.
    """
    _innovations(frames)
    _joseph([f for f in frames if _gate(f, gating)])


def run_lockstep(streams, setup: FilterSetup) -> list:
    """Run the configured filter over each (ImuStream, MeasurementStream)
    pair of streams; returns one RunRecord per pair.

    The runs step through the camera ticks together: in each tick, runs
    whose shapes agree share one stacked call of the propagation, the
    innovation and the update, while projection, matching,
    initialization, stacking, gating, recording and the divergence test
    stay per run. Every record is bit for bit what run_filter returns for
    its streams alone, and a run in a group of one calls the single-run
    kernels.
    """
    model = MODELS[setup.filter_type]
    # a diverging estimate overflows to inf and NaN; the divergence test
    # reports that, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        runs = [_Run(imu, meas) for imu, meas in streams]
        for k in range(max((r.n_cam for r in runs), default=-1) + 1):
            live = [r for r in runs if not r.done and k <= r.n_cam]
            if k > 0:
                _propagate(live, k, setup.imu_noise)
            frames = []
            for run in live:
                frame = run.meas.ticks[k]
                if frame:
                    matches = _associate(run, frame, setup.match_gate)
                    if matches:
                        frames.append((run, _Frame(run.state, run.cov,
                                                   run.counts, matches,
                                                   model)))
            if frames:
                _update_frames([f for _, f in frames], setup.gating)
                for run, f in frames:
                    run.state, run.cov = f.state, f.cov
            for run in live:
                run.record(k)
    return [r.run_record() for r in runs]


def run_filter(imu: ImuStream, meas_stream: MeasurementStream,
               setup: FilterSetup) -> RunRecord:
    """Run the configured filter over the streams.

    The streams must keep the timing of sim.timing_fault, or ValueError
    with its message. Between camera ticks the consecutive IMU samples are
    averaged pairwise (trapezoidal measurement averaging) and propagated in
    one batch. The run stops early and is marked diverged when the
    position error exceeds DIVERGENCE_BOUND or is not a number.
    Objects are numbered in the order they are initialized. This is the
    one-run case of run_lockstep.
    """
    return run_lockstep([(imu, meas_stream)], setup)[0]
