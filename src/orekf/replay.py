"""Line-delimited replay log: every IMU sample, ground-truth snapshot, and
measurement of a run, as decimal text with 17 significant digits so a
replayed run is bit-identical to the original."""

from __future__ import annotations

import math

import numpy as np

from .sim import TIME_TOL, ImuStream, MeasurementStream, timing_fault
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

    Raises ReplayLogError on a version mismatch, and names the line of a
    record without its newline, a malformed record or non-finite number, a
    TRUTH record not preceded by an IMU record at its own time, a MEAS
    record not preceded by the TRUTH record of its time, IMU records past
    the last TRUTH record, and timing that breaks sim.timing_fault's rule,
    which run_filter needs.
    """
    imu_rows, truth_rows, ticks = [], [], []
    imu_lines, truth_lines = [], []
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
                row = list(map(float, parts[:1]
                               + parts[3 if kind == "MEAS" else 2:]))
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
                if not imu_rows or abs(imu_rows[-1][0] - row[0]) > TIME_TOL:
                    raise ReplayLogError(
                        f"line {line_no}: TRUTH at t={row[0]} is not preceded "
                        f"by an IMU record at its own time")
                truth_rows.append(row)
                truth_lines.append(line_no)
                ticks.append([])
                imu_after_truth = None
            else:
                if not ticks or abs(truth_rows[-1][0] - row[0]) > TIME_TOL:
                    raise ReplayLogError(
                        f"line {line_no}: MEAS at t={row[0]} is not preceded "
                        f"by the TRUTH record of its tick")
                ticks[-1].append(PoseMeasurement(
                    object_class=parts[2], p_co=np.array(row[1:4]),
                    q_co=np.array(row[4:8]), var_p=np.array(row[8:11]),
                    var_theta=np.array(row[11:14])))
    if not imu_rows or not truth_rows:
        raise ReplayLogError("log contains no IMU or TRUTH records")
    if imu_after_truth is not None:
        raise ReplayLogError(f"line {imu_after_truth}: IMU records continue "
                             f"past the last TRUTH tick (truncated log)")

    imu_arr = np.array(imu_rows)
    truth_arr = np.array(truth_rows)
    fault = timing_fault(imu_arr[:, 0], truth_arr[:, 0])
    if fault:
        stream, i, message = fault
        lines = imu_lines if stream == "IMU" else truth_lines
        raise ReplayLogError(f"line {lines[i]}: {message}")
    imu = ImuStream(imu_arr[:, 0], imu_arr[:, 1:4], imu_arr[:, 4:7])
    meas = MeasurementStream(truth_arr[:, 0], ticks, truth_arr[:, 1:4],
                             truth_arr[:, 4:7], truth_arr[:, 7:11])
    return imu, meas
