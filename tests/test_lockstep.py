"""Lockstep runs: R runs that share stacked kernel calls give bit for bit
what R separate runs give.

The first group pins the property of this numpy and BLAS build that the
engine rests on: each stacked call it makes equals the 2-D call on every
matrix of the stack, bit for bit. A build for which that fails changes
sweep outputs, and fails here first.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from orekf import cli
from orekf import runner
from orekf import update_direct as ud
from orekf.config import RunConfig
from orekf.matching import initialize_object
from orekf.propagation import ImuNoise, propagate_batch
from orekf.runner import FilterSetup, run_filter, run_lockstep
from tests.test_update_direct import consistent_measurement

R = 8
rng = np.random.default_rng(20261020)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def each(fn, *stacks):
    """fn applied to the 2-D matrices of the stacks one at a time."""
    return np.stack([fn(*(s[r] for s in stacks)) for r in range(R)])


def spd(m: int) -> np.ndarray:
    """R random symmetric positive definite m x m matrices."""
    a = rng.standard_normal((R, m, m))
    return a @ a.swapaxes(1, 2) + m * np.eye(m)


class TestStackedCallsAreThePerMatrixCalls:
    def test_matmul_15x15(self):
        f, q = rng.standard_normal((2, R, 15, 15))
        assert same_bits(f @ q, each(np.matmul, f, q))
        assert same_bits(f @ q @ f.swapaxes(1, 2),
                         each(lambda a, b: a @ b @ a.T, f, q))

    @pytest.mark.parametrize("m, d", [(3, 27), (6, 27), (12, 33), (24, 45)])
    def test_rows_times_square(self, m, d):
        h = rng.standard_normal((R, m, d))
        p = spd(d)
        assert same_bits(h @ p, each(np.matmul, h, p))
        assert same_bits(h @ p @ h.swapaxes(1, 2),
                         each(lambda a, b: a @ b @ a.T, h, p))

    @pytest.mark.parametrize("d", [21, 27, 45])
    def test_core_slices_of_the_covariance(self, d):
        """The column slice P[:, :15] is not contiguous; the row slice is."""
        f = rng.standard_normal((R, 15, 15))
        p = spd(d)
        assert same_bits(f @ p[:, :15, :], each(lambda a, b: a @ b[:15, :],
                                                f, p))
        assert same_bits(p[:, :, :15] @ f.swapaxes(1, 2),
                         each(lambda b, a: b[:, :15] @ a.T, p, f))

    @pytest.mark.parametrize("m", [3, 6, 12, 24])
    def test_eigvalsh(self, m):
        s = spd(m)
        assert same_bits(np.linalg.eigvalsh(s), each(np.linalg.eigvalsh, s))

    @pytest.mark.parametrize("m, d", [(3, 27), (6, 27), (12, 33), (24, 45)])
    def test_solve(self, m, d):
        s, hp = spd(m), rng.standard_normal((R, m, d))
        assert same_bits(np.linalg.solve(s, hp), each(np.linalg.solve, s, hp))

    @pytest.mark.parametrize("m, d", [(3, 27), (6, 27), (12, 33), (24, 45)])
    def test_gain_times_residual(self, m, d):
        """A transposed gain times a vector, against the (..., 1) form."""
        gain = rng.standard_normal((R, m, d)).swapaxes(1, 2)
        z = rng.standard_normal((R, m))
        assert same_bits((gain @ z[..., None])[..., 0],
                         each(np.matmul, gain, z))


def campaign_streams(filter_type="direct", n=R, duration=3.0):
    cfg = RunConfig(preset="preset02", filter=filter_type, duration=duration,
                    imu_sigma_acc=0.15, imu_sigma_gyro=0.008).validate()
    return cfg, [cli.simulate_streams(cfg, seed) for seed in range(n)]


def assert_same_record(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert same_bits(a, b) if isinstance(b, np.ndarray) else a == b, \
            f.name


class TestKernels:
    def states(self, n=R):
        """States with one object and covariances of n real runs."""
        _, streams = campaign_streams(n=n, duration=1.0)
        out = []
        for imu, meas in streams:
            run = runner._Run(imu, meas)
            out.append(initialize_object(run.state, run.cov,
                                         meas.ticks[0][0]) + (imu,))
        return out

    def test_propagation(self):
        runs = self.states()
        noise = ImuNoise(sigma_acc=0.15, sigma_gyro=0.008)
        acc = [imu.acc[:10] for *_, imu in runs]
        gyro = [imu.gyro[:10] for *_, imu in runs]
        gyro[1] = np.zeros((10, 3))         # the small-angle branch
        states, covs = [s for s, _, _ in runs], [c for _, c, _ in runs]
        for _ in range(3):                  # chained calls
            got_states, got_covs = propagate_batch(states, np.stack(covs),
                                                   acc, gyro, 0.005, noise)
            want = [propagate_batch(s, c, a, g, 0.005, noise)
                    for s, c, a, g in zip(states, covs, acc, gyro)]
            for state, cov, (w_state, w_cov) in zip(got_states, got_covs,
                                                    want):
                assert same_bits(cov, w_cov)
                for name in ("p_wi", "v_wi", "q_wi"):
                    assert same_bits(getattr(state, name),
                                     getattr(w_state, name))
            states, covs = got_states, list(got_covs)

    def test_an_infinite_rate_stays_in_its_run(self):
        runs = self.states(3)
        noise = ImuNoise()
        gyro = [imu.gyro[:10].copy() for *_, imu in runs]
        gyro[1][4] = np.inf
        with np.errstate(invalid="ignore"):
            states, covs = propagate_batch(
                [s for s, _, _ in runs], np.stack([c for _, c, _ in runs]),
                [imu.acc[:10] for *_, imu in runs], gyro, 0.005, noise)
        assert np.isnan(states[1].q_wi).all()
        for r in (0, 2):
            state, cov, imu = runs[r]
            w_state, w_cov = propagate_batch(state, cov, imu.acc[:10],
                                             gyro[r], 0.005, noise)
            assert same_bits(covs[r], w_cov)
            assert same_bits(states[r].q_wi, w_state.q_wi)

    def test_innovation_and_update_with_a_skipped_run(self):
        runs = self.states()
        frames = [runner._Frame(state, cov, {},
                                [(0, state.objects[0],
                                  consistent_measurement(state, 0, var=1e-2))],
                                ud.DIRECT)
                  for state, cov, _ in runs]
        stacked = ud.stack_updates([f.stacked for f in frames])
        covs = np.stack([f.cov for f in frames])
        s, hp = ud.innovation(covs, stacked)
        s[3] = -np.eye(6)                  # not positive definite: skipped
        got = ud.joseph_update([f.state for f in frames], covs, stacked, s,
                               hp)
        for r, f in enumerate(frames):
            s_r, hp_r = ud.innovation(f.cov, f.stacked)
            assert r == 3 or (same_bits(s[r], s_r) and same_bits(hp[r], hp_r))
            want = ud.joseph_update(f.state, f.cov, f.stacked, s[r], hp_r)
            assert got[2][r] is want[2] is (r != 3)
            assert same_bits(got[1][r], want[1])
            assert same_bits(got[0][r].p_wi, want[0].p_wi)
            assert same_bits(got[0][r].objects[0].q_wo,
                             want[0].objects[0].q_wo)


class TestRunLockstep:
    def test_runs_that_leave_and_skip_ticks(self):
        """Blank frames, shorter streams and divergence take runs out of
        their groups at different ticks; every record stays its own."""
        cfg, streams = campaign_streams("inverse")
        edited = []
        for r, (imu, meas) in enumerate(streams):
            ticks = [[] if (k + r) % 7 == 0 else f
                     for k, f in enumerate(meas.ticks)]
            n = len(ticks) - 10 * (r % 3)   # some streams end earlier
            meas = replace(meas, t=meas.t[:n], ticks=ticks[:n],
                           truth_pos=meas.truth_pos[:n],
                           truth_vel=meas.truth_vel[:n],
                           truth_quat=meas.truth_quat[:n])
            imu = replace(imu, t=imu.t[:(n - 1) * 10 + 1],
                          acc=imu.acc[:(n - 1) * 10 + 1],
                          gyro=imu.gyro[:(n - 1) * 10 + 1])
            edited.append((imu, meas))
        # a bound that some runs exceed, at different ticks
        setup = replace(cfg.filter_setup(), divergence_bound=0.3)
        records = run_lockstep(edited, setup)
        assert 0 < sum(rec.diverged for rec in records) < R
        for rec, (imu, meas) in zip(records, edited):
            assert_same_record(rec, run_filter(imu, meas, setup))

    def test_no_streams_no_records(self):
        assert run_lockstep([], FilterSetup()) == []


def assert_sweep_is_per_task(cfg):
    """run_sweep_cells at 1 and 2 workers equals _sweep_task, key by key;
    returns the shapes of the kernel calls of the serial sweep."""
    calls = {"propagate": [], "update": []}
    propagate, joseph = runner.propagate_batch, ud.joseph_update

    def propagate_spy(state, cov, *args):
        calls["propagate"].append(cov.shape)
        return propagate(state, cov, *args)

    def joseph_spy(state, cov, stacked, *args):
        calls["update"].append(stacked.jacobian.shape)
        return joseph(state, cov, stacked, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "propagate_batch", propagate_spy)
        mp.setattr(ud, "joseph_update", joseph_spy)
        serial = cli.run_sweep_cells(cfg, 1)
    assert cli.run_sweep_cells(cfg, 2) == serial
    for key, (seed, met) in serial.items():
        _, _, _, seed_t, met_t = cli._sweep_task((cfg, *key))
        assert (seed, repr(met)) == (seed_t, repr(met_t)), key
    return serial, calls


@pytest.mark.parametrize("filter_type", ["direct", "inverse"])
def test_criterion_4_corners_sweep_is_per_task(filter_type):
    # seed 4: in the first batch, inverse runs initialize a second object
    # and one diverges
    cfg = RunConfig(preset="preset02", filter=filter_type, duration=5.0,
                    imu_sigma_acc=0.15, imu_sigma_gyro=0.008, seed=4,
                    runs_per_cell=4, sweep_sigma_p=(0.01, 0.3),
                    sweep_sigma_theta=(0.0175, 0.35)).validate()
    results, calls = assert_sweep_is_per_task(cfg)
    stacks = {shape[0] for shape in calls["propagate"] if len(shape) == 3}
    assert R in stacks
    if filter_type == "inverse":
        assert any(met["diverged"] for _, met in results.values())
        assert len(stacks) > 1                      # groups split
        assert (33, 33) in calls["propagate"]       # a second object, alone


def test_chi2p_sweep_with_split_row_groups_is_per_task():
    cfg = RunConfig(preset="preset06", filter="direct", gating="chi2p",
                    sigma_mode="exact", duration=2.0, runs_per_cell=8,
                    sweep_sigma_p=(0.02,),
                    sweep_sigma_theta=(0.0875,)).validate()
    _, calls = assert_sweep_is_per_task(cfg)
    rows = {shape[-2] for shape in calls["update"]}
    assert 24 in rows and min(rows) < 24           # gating dropped rows
    assert any(len(shape) == 2 for shape in calls["update"])
    assert any(len(shape) == 3 for shape in calls["update"])
