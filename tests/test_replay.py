"""Property tests of the replay-log format: a write/read round trip, and
truncated or corrupted logs."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from hypothesis.extra.numpy import arrays

from orekf.cli import cmd_replay, cmd_run
from orekf.config import RunConfig
from orekf.geom3 import quat_canonical
from orekf.propagation import ImuNoise
from orekf.replay import ReplayLogError, read_log, write_log
from orekf.runner import FilterSetup, run_filter
from orekf.sim import ImuStream, MeasurementStream, SensorSpec, gen_imu, \
    gen_measurements
from orekf.update_direct import PoseMeasurement
from tests.test_sim import lively_traj, single_object_world

finite = hs.floats(allow_nan=False, allow_infinity=False)
positive = hs.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
unit_range = hs.floats(-1.0, 1.0)


def vectors(n, elements=finite):
    return arrays(float, n, elements=elements)


@hs.composite
def measurements(draw):
    q = draw(vectors(4, unit_range))
    assume(np.linalg.norm(q) > 1e-3)
    return PoseMeasurement(
        object_class=draw(hs.sampled_from(["cup", "box_2"])),
        p_co=draw(vectors(3)), q_co=q, var_p=draw(vectors(3, positive)),
        var_theta=draw(vectors(3, positive)))


@hs.composite
def streams(draw):
    n_cam = draw(hs.integers(0, 3))
    ratio = draw(hs.integers(1, 3))
    rate = draw(hs.sampled_from([7.0, 100.0, 200.0]))
    t = np.arange(n_cam * ratio + 1) / rate
    imu = ImuStream(t, draw(vectors((len(t), 3))), draw(vectors((len(t), 3))))
    t_cam = t[::ratio]
    ticks = [draw(hs.lists(measurements(), max_size=2)) for _ in t_cam]
    truth_quat = draw(vectors((n_cam + 1, 4), unit_range))
    norm = np.linalg.norm(truth_quat, axis=1, keepdims=True)
    assume((norm > 1e-3).all())
    meas = MeasurementStream(t_cam, ticks, draw(vectors((n_cam + 1, 3))),
                             draw(vectors((n_cam + 1, 3))), truth_quat / norm)
    return imu, meas


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(streams())
def test_write_read_round_trip_is_bit_exact(tmp_path_factory, pair):
    imu, meas = pair
    path = tmp_path_factory.mktemp("log") / "r.log"
    write_log(path, imu, meas)
    imu2, meas2 = read_log(path)
    for name in ("t", "acc", "gyro"):
        assert same_bits(getattr(imu, name), getattr(imu2, name))
    for name in ("t", "truth_pos", "truth_vel", "truth_quat"):
        assert same_bits(getattr(meas, name), getattr(meas2, name))
    assert len(meas2.ticks) == len(meas.ticks)
    for frame, frame2 in zip(meas.ticks, meas2.ticks):
        assert len(frame2) == len(frame)
        for m, m2 in zip(frame, frame2):
            assert m2.object_class == m.object_class
            for name in ("p_co", "q_co", "var_p", "var_theta"):
                assert same_bits(getattr(m, name), getattr(m2, name))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A 1 s preset01 run: its config, its log and its run.csv rows."""
    cfg = RunConfig(preset="preset01", duration=1.0, seed=3, gating="chi2",
                    sigma_theta=(0.05,) * 3).validate()
    out = tmp_path_factory.mktemp("original")
    cmd_run(cfg, out)
    return (cfg, (out / "replay.log").read_bytes(),
            (out / "run.csv").read_bytes().splitlines())


def _write(tmp_path_factory, data: bytes):
    path = tmp_path_factory.mktemp("cut") / "r.log"
    path.write_bytes(data)
    return path


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_cut_inside_a_line_raises(tmp_path_factory, recorded, data):
    _, log, _ = recorded
    cuts = [i for i in range(len(log)) if log[i - 1:i] != b"\n"]
    cut = data.draw(hs.sampled_from(cuts))
    with pytest.raises(ReplayLogError):
        read_log(_write(tmp_path_factory, log[:cut]))


@settings(max_examples=60, deadline=None)
@given(hs.data(), hs.sampled_from(["", "x", "1.2.3", "--1", "1e", "0x1p3",
                                   "nan", "-inf"]))
def test_field_that_is_not_a_number_raises(tmp_path_factory, recorded, data,
                                           junk):
    _, log, _ = recorded
    lines = log.decode().splitlines(keepends=True)
    i = data.draw(hs.integers(1, len(lines) - 1))
    fields = lines[i][:-1].split(",")
    # every field is a number except the kind and a MEAS record's class
    j = data.draw(hs.sampled_from(
        [j for j in range(len(fields)) if (fields[1], j) != ("MEAS", 2)]))
    fields[j] = junk
    lines[i] = ",".join(fields) + "\n"
    with pytest.raises(ReplayLogError, match=f"^line {i + 1}: "):
        read_log(_write(tmp_path_factory, "".join(lines).encode()))


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_cut_at_a_line_end_raises_or_replays_a_prefix(tmp_path_factory,
                                                       recorded, data):
    cfg, log, rows = recorded
    ends = [i + 1 for i in range(len(log)) if log[i:i + 1] == b"\n"]
    path = _write(tmp_path_factory, log[:data.draw(hs.sampled_from(ends))])
    try:
        read_log(path)
    except ReplayLogError:
        return
    out = path.parent / "replay"
    cmd_replay(path, cfg, out)
    replayed = (out / "run.csv").read_bytes().splitlines()
    assert 2 <= len(replayed) <= len(rows)
    assert replayed[:-1] == rows[:len(replayed) - 1]


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_moved_measurement_raises_with_line_number(tmp_path_factory,
                                                   recorded, data):
    _, log, _ = recorded
    lines = log.decode().splitlines(keepends=True)
    i = data.draw(hs.sampled_from(
        [i for i, line in enumerate(lines) if ",MEAS," in line]))
    # to just before the TRUTH record of its tick
    j = max(k for k in range(i) if ",TRUTH," in lines[k])
    lines.insert(j, lines.pop(i))
    with pytest.raises(ReplayLogError, match=f"^line {j + 1}: MEAS"):
        read_log(_write(tmp_path_factory, "".join(lines).encode()))


@settings(max_examples=60, deadline=None)
@given(hs.data(), hs.sampled_from([0.0, 1e-3, 1.0 - 1e-8, 1.0 + 1e-8, 2.0]))
def test_quaternion_off_unit_norm_raises_with_line_number(
        tmp_path_factory, recorded, data, scale):
    _, log, _ = recorded
    lines = log.decode().splitlines(keepends=True)
    i = data.draw(hs.sampled_from(
        [i for i, line in enumerate(lines)
         if ",TRUTH," in line or ",MEAS," in line]))
    fields = lines[i][:-1].split(",")
    q = slice(8, 12) if fields[1] == "TRUTH" else slice(6, 10)
    fields[q] = [format(float(v) * scale, ".17g") for v in fields[q]]
    lines[i] = ",".join(fields) + "\n"
    with pytest.raises(ReplayLogError,
                       match=f"^line {i + 1}: {fields[1]} quaternion"):
        read_log(_write(tmp_path_factory, "".join(lines).encode()))


@settings(max_examples=60, deadline=None)
@given(hs.data(), hs.sampled_from(["0", "-0.0", "-1e-300", "-1"]))
def test_variance_that_is_not_positive_raises_with_line_number(
        tmp_path_factory, recorded, data, value):
    _, log, _ = recorded
    lines = log.decode().splitlines(keepends=True)
    i = data.draw(hs.sampled_from(
        [i for i, line in enumerate(lines) if ",MEAS," in line]))
    fields = lines[i][:-1].split(",")
    fields[data.draw(hs.integers(10, 15))] = value
    lines[i] = ",".join(fields) + "\n"
    with pytest.raises(ReplayLogError, match=f"^line {i + 1}: MEAS variances"):
        read_log(_write(tmp_path_factory, "".join(lines).encode()))


@pytest.mark.parametrize("q", [[0.0, 0.0, 0.0, 0.0], [1e-200, 0.0, 0.0, 0.0],
                               [np.nan, 0.0, 0.0, 1.0],
                               [0.0, np.inf, 0.0, 1.0]],
                         ids=["zero", "underflow", "nan", "inf"])
def test_measurement_quaternion_needs_a_finite_nonzero_norm(q):
    with pytest.raises(ValueError, match="q_co"):
        PoseMeasurement("box", np.zeros(3), np.array(q), np.ones(3),
                        np.ones(3))


@pytest.mark.parametrize("var", [0.0, -1.0, np.nan], ids=["zero", "negative",
                                                          "nan"])
@pytest.mark.parametrize("block", ["var_p", "var_theta"])
def test_measurement_variances_must_be_positive(block, var):
    variances = {"var_p": np.ones(3), "var_theta": np.ones(3)}
    variances[block][1] = var
    with pytest.raises(ValueError, match="variances must be positive"):
        PoseMeasurement("box", np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]),
                        **variances)


@settings(max_examples=300, deadline=None)
@given(hs.lists(hs.floats(-2.0, 2.0) | hs.sampled_from([0.0, -0.0, 1e-160]),
                min_size=4, max_size=4))
def test_measurement_quaternion_is_the_canonical_quaternion(q):
    """The stored q_co is quat_canonical of the given one, bit for bit."""
    q = np.array(q)
    assume(0.0 < q @ q < np.inf)
    got = PoseMeasurement("box", np.zeros(3), q, np.ones(3), np.ones(3)).q_co
    assert got.tobytes() == quat_canonical(q).tobytes()


@pytest.fixture(scope="module")
def simulated():
    """1 s of 200 Hz IMU samples and 20 Hz camera ticks."""
    traj = lively_traj(1.0)
    return (gen_imu(traj, ImuNoise(), 200.0, seed=2),
            gen_measurements(traj, single_object_world(), SensorSpec(),
                             seed=2))


@settings(max_examples=40, deadline=None)
@given(hs.data())
def test_run_filter_and_read_log_reject_a_timing_fault_alike(
        tmp_path_factory, simulated, data):
    imu, meas = simulated
    if data.draw(hs.booleans(), label="shift an IMU time"):
        i = data.draw(hs.sampled_from(
            [i for i in range(len(imu.t)) if i % 10]))
        t = imu.t.copy()
        t[i] += data.draw(hs.sampled_from([-1e-4, 1e-4]))
        imu = ImuStream(t, imu.acc, imu.gyro)
    else:
        # not the last tick: a log without it reads as cut after its
        # predecessor, which read_log reports as such
        k = data.draw(hs.integers(0, len(meas.t) - 2), label="deleted tick")
        keep = np.arange(len(meas.t)) != k
        meas = MeasurementStream(
            meas.t[keep], [f for j, f in enumerate(meas.ticks) if j != k],
            meas.truth_pos[keep], meas.truth_vel[keep],
            meas.truth_quat[keep])
    with pytest.raises(ValueError) as in_memory:
        run_filter(imu, meas, FilterSetup())
    path = tmp_path_factory.mktemp("fault") / "r.log"
    write_log(path, imu, meas)
    with pytest.raises(ReplayLogError) as replayed:
        read_log(path)
    assert re.fullmatch(r"line \d+: (.*)", str(replayed.value)).group(1) \
        == str(in_memory.value)
