"""Line-delimited replay log: every IMU sample, ground-truth snapshot, and
measurement of a run, as decimal text with 17 significant digits so a
replayed run is bit-identical to the original."""

from __future__ import annotations

import math

import numpy as np

from .sim import ImuStream, MeasurementStream
from .update_direct import PoseMeasurement

FORMAT_HEADER = "replay-log 1"

_FIELDS = {"IMU": 8, "TRUTH": 12, "MEAS": 16}  # fields per record kind


def _f(x: float) -> str:
    """A float with 17 significant digits, which reads back bit for bit;
    every output file of the package writes its floats with this."""
    return format(float(x), ".17g")


class ReplayLogError(ValueError):
    pass


def write_log(path, imu: ImuStream, meas: MeasurementStream):
    """Time-ordered dump: IMU lines, then TRUTH + MEAS lines at each camera
    tick they precede."""
    n_imu = len(imu.t)
    n_cam = len(meas.t)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        i = 0
        for k in range(n_cam + 1):
            # IMU samples up to camera tick k; after the last tick, the rest
            t_end = meas.t[k] + 1e-12 if k < n_cam else np.inf
            while i < n_imu and imu.t[i] <= t_end:
                fh.write(",".join(
                    [_f(imu.t[i]), "IMU"]
                    + [_f(v) for v in imu.acc[i]]
                    + [_f(v) for v in imu.gyro[i]]) + "\n")
                i += 1
            if k == n_cam:
                break
            t_k = _f(meas.t[k])  # a measurement's time is its tick's
            fh.write(",".join(
                [t_k, "TRUTH"]
                + [_f(v) for v in meas.truth_pos[k]]
                + [_f(v) for v in meas.truth_vel[k]]
                + [_f(v) for v in meas.truth_quat[k]]) + "\n")
            for m in meas.ticks[k]:
                fh.write(",".join(
                    [t_k, "MEAS", m.object_class]
                    + [_f(v) for v in m.p_co]
                    + [_f(v) for v in m.q_co]
                    + [_f(v) for v in m.var_p]
                    + [_f(v) for v in m.var_theta]) + "\n")


def read_log(path):
    """Rebuild the (ImuStream, MeasurementStream) pair from a log.

    Raises ReplayLogError on a version mismatch, malformed lines or
    non-finite numbers, a record without its newline, a TRUTH record not
    preceded by an IMU record at its own time, IMU records past the last
    TRUTH tick, non-monotone timestamps, IMU samples not evenly spaced to
    1e-9 s, or TRUTH record k not following IMU sample k * ratio (ratio:
    IMU samples per camera tick), which is the timing run_filter needs.
    """
    imu_rows, truth_rows, meas_rows = [], [], []
    imu_lines, truth_lines = [], []
    truth_imu = []  # index of the IMU sample each TRUTH record follows
    imu_after_truth = None  # line of the first IMU record after the last TRUTH
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != FORMAT_HEADER:
            raise ReplayLogError(
                f"unsupported log header {header!r} (expected "
                f"{FORMAT_HEADER!r})")
        for line_no, line in enumerate(fh, start=2):
            if not line.endswith("\n"):
                raise ReplayLogError(f"line {line_no}: record does not end "
                                     f"in a newline (truncated log)")
            line = line[:-1]
            if not line:
                continue
            parts = line.split(",")
            kind = parts[1] if len(parts) > 1 else None
            try:
                if len(parts) != _FIELDS.get(kind):
                    raise ValueError(f"{len(parts)} fields in a {kind!r} "
                                     f"record")
                # every field is a number but the kind and a MEAS class
                row = [float(p) for p in
                       parts[:1] + parts[3 if kind == "MEAS" else 2:]]
                if not all(map(math.isfinite, row)):
                    raise ValueError("a field is not a finite number")
            except ValueError as exc:
                raise ReplayLogError(
                    f"line {line_no}: truncated or corrupt record "
                    f"({exc})") from None
            if kind == "IMU":
                imu_rows.append(row)
                imu_lines.append(line_no)
                imu_after_truth = imu_after_truth or line_no
            elif kind == "TRUTH":
                if not imu_rows or abs(imu_rows[-1][0] - row[0]) > 1e-9:
                    raise ReplayLogError(
                        f"line {line_no}: TRUTH at t={row[0]} is not preceded "
                        f"by an IMU record at its own time")
                truth_rows.append(row)
                truth_lines.append(line_no)
                truth_imu.append(len(imu_rows) - 1)
                imu_after_truth = None
            else:
                meas_rows.append((line_no, row[0], parts[2], row[1:]))
    if not imu_rows or not truth_rows:
        raise ReplayLogError("log contains no IMU or TRUTH records")
    if imu_after_truth is not None:
        raise ReplayLogError(f"line {imu_after_truth}: IMU records continue "
                             f"past the last TRUTH tick (truncated log)")

    imu_arr = np.array(imu_rows)
    truth_arr = np.array(truth_rows)
    if np.any(np.diff(imu_arr[:, 0]) <= 0) or np.any(np.diff(truth_arr[:, 0]) <= 0):
        raise ReplayLogError("timestamps are not strictly increasing")
    step = np.diff(imu_arr[:, 0])
    uneven = np.abs(step - step[:1]) > 1e-9
    if uneven.any():
        raise ReplayLogError(f"line {imu_lines[int(uneven.argmax()) + 1]}: "
                             f"IMU samples are not evenly spaced")
    ratio = truth_imu[1] if len(truth_imu) > 1 else 0
    off = np.array(truth_imu) != np.arange(len(truth_imu)) * ratio
    if off.any():
        k = int(off.argmax())
        raise ReplayLogError(
            f"line {truth_lines[k]}: TRUTH record {k} follows IMU sample "
            f"{truth_imu[k]}, not sample {k * ratio} (camera ticks must fall "
            f"evenly on IMU samples)")
    imu = ImuStream(imu_arr[:, 0], imu_arr[:, 1:4], imu_arr[:, 4:7])
    ticks = [[] for _ in range(len(truth_rows))]
    t_cam = truth_arr[:, 0]
    t_meas = np.array([t for _, t, _, _ in meas_rows])
    # nearest TRUTH tick: the one before or at the insertion point
    hi = np.searchsorted(t_cam, t_meas).clip(0, len(t_cam) - 1)
    lo = (hi - 1).clip(0)
    nearest = np.where(np.abs(t_cam[lo] - t_meas)
                       <= np.abs(t_cam[hi] - t_meas), lo, hi)
    for (line_no, t, obj_class, vals), k in zip(meas_rows, nearest):
        if abs(t_cam[k] - t) > 1e-9:
            raise ReplayLogError(
                f"line {line_no}: MEAS at t={t} does not align with any "
                f"TRUTH tick")
        ticks[k].append(PoseMeasurement(
            object_class=obj_class, p_co=np.array(vals[0:3]),
            q_co=np.array(vals[3:7]), var_p=np.array(vals[7:10]),
            var_theta=np.array(vals[10:13])))
    meas = MeasurementStream(t_cam, ticks, truth_arr[:, 1:4],
                             truth_arr[:, 4:7], truth_arr[:, 7:11])
    return imu, meas
