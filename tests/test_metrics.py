import numpy as np
import pytest
from numpy.testing import assert_allclose

from orekf.geom3 import QUAT_IDENTITY, exp_so3, log_so3, quat_mul, quat_of, \
    rot_of
from orekf.metrics import RunRecord, anees, max_position_error, \
    rmse_orientation, rmse_position


def make_record(p_true, p_est, q_true=None, q_est=None, cov_pos=None,
                cov_att=None):
    k = len(p_true)
    ident = np.tile(QUAT_IDENTITY, (k, 1))
    eye = np.tile(np.eye(3), (k, 1, 1))
    return RunRecord(
        t=np.arange(k, dtype=float),
        p_true=np.asarray(p_true, dtype=float),
        q_true=ident if q_true is None else np.asarray(q_true),
        p_est=np.asarray(p_est, dtype=float),
        q_est=ident if q_est is None else np.asarray(q_est),
        cov_pos=eye if cov_pos is None else np.asarray(cov_pos),
        cov_att=eye if cov_att is None else np.asarray(cov_att),
    )


class TestRmsePosition:
    def test_perfect_is_zero(self):
        rec = make_record(np.zeros((5, 3)), np.zeros((5, 3)))
        assert rmse_position(rec) == 0.0

    def test_constant_offset(self):
        p = np.zeros((8, 3))
        rec = make_record(p, p + np.array([0.1, 0, 0]))
        assert_allclose(rmse_position(rec), 0.1, atol=1e-15)

    def test_matches_direct_resummation(self):
        rng = np.random.default_rng(0)
        p_true = rng.normal(size=(40, 3))
        p_est = p_true + rng.normal(size=(40, 3)) * 0.3
        rec = make_record(p_true, p_est)
        acc = 0.0
        for a, b in zip(p_est, p_true):
            acc += sum((ai - bi) ** 2 for ai, bi in zip(a, b))
        assert abs(rmse_position(rec) - np.sqrt(acc / 40)) < 1e-12

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            make_record(np.zeros((0, 3)), np.zeros((0, 3)))


class TestRmseOrientation:
    def test_perfect_is_zero(self):
        rec = make_record(np.zeros((4, 3)), np.zeros((4, 3)))
        assert rmse_orientation(rec) == 0.0

    def test_constant_five_degree_yaw(self):
        k = 6
        q_err = quat_of(exp_so3([0, 0, np.deg2rad(5.0)]))
        q_est = np.tile(QUAT_IDENTITY, (k, 1))
        q_true = np.tile(quat_mul(QUAT_IDENTITY, q_err), (k, 1))
        rec = make_record(np.zeros((k, 3)), np.zeros((k, 3)), q_true=q_true,
                          q_est=q_est)
        assert_allclose(rmse_orientation(rec), 5.0, atol=1e-10)

    def test_mixed_axis_matches_log_oracle(self):
        rng = np.random.default_rng(1)
        k = 30
        q_true, q_est, expect = [], [], []
        for _ in range(k):
            q = quat_of(exp_so3(rng.normal(size=3)))
            rv = rng.normal(size=3) * 0.2
            q_true.append(quat_mul(q, quat_of(exp_so3(rv))))
            q_est.append(q)
            expect.append(np.linalg.norm(rv) ** 2)
        rec = make_record(np.zeros((k, 3)), np.zeros((k, 3)),
                          q_true=np.array(q_true), q_est=np.array(q_est))
        assert_allclose(rmse_orientation(rec),
                        np.degrees(np.sqrt(np.mean(expect))), atol=1e-9)


class TestMaxPositionError:
    def test_perfect_and_spike(self):
        p = np.zeros((10, 3))
        est = p.copy()
        est[4, 1] = 0.5
        rec = make_record(p, est)
        assert max_position_error(rec) == 0.5
        assert max_position_error(make_record(p, p)) == 0.0

    def test_matches_rescan_and_bounds_rmse(self):
        rng = np.random.default_rng(2)
        p_true = rng.normal(size=(25, 3))
        p_est = p_true + rng.normal(size=(25, 3)) * 0.2
        rec = make_record(p_true, p_est)
        rescan = max(np.sqrt(np.sum((a - b) ** 2))
                     for a, b in zip(p_est, p_true))
        assert_allclose(max_position_error(rec), rescan, atol=1e-15)
        assert rmse_position(rec) <= max_position_error(rec)


class TestAnees:
    def test_calibrated_gaussian_errors(self):
        rng = np.random.default_rng(3)
        k = 100_000
        cov = np.diag([0.04, 0.09, 0.01])
        errs = rng.multivariate_normal(np.zeros(3), cov, size=k)
        rec = make_record(np.zeros((k, 3)), errs,
                          cov_pos=np.tile(cov, (k, 1, 1)))
        assert abs(anees(rec, "position") - 1.0) < 0.05

    def test_overconfidence_scaling_law(self):
        rng = np.random.default_rng(4)
        k = 20_000
        cov = np.eye(3) * 0.01
        errs = rng.multivariate_normal(np.zeros(3), cov, size=k)
        rec = make_record(np.zeros((k, 3)), errs,
                          cov_pos=np.tile(cov * 4.0, (k, 1, 1)))
        assert abs(anees(rec, "position") - 0.25) < 0.02

    def test_zero_error_is_zero(self):
        rec = make_record(np.zeros((5, 3)), np.zeros((5, 3)))
        assert anees(rec, "position") == 0.0
        assert anees(rec, "orientation") == 0.0

    def test_singular_blocks_skipped(self):
        k = 10
        covs = np.tile(np.eye(3), (k, 1, 1))
        covs[3] = 0.0  # singular tick
        rec = make_record(np.zeros((k, 3)), np.full((k, 3), 0.1),
                          cov_pos=covs)
        val = anees(rec, "position")
        assert np.isfinite(val)
        assert_allclose(val, 0.01, atol=1e-12)  # mean over the 9 good ticks

    def test_invariant_under_world_rotation(self):
        rng = np.random.default_rng(5)
        k = 50
        errs = rng.normal(size=(k, 3)) * 0.1
        covs = np.tile(np.diag([0.01, 0.02, 0.03]), (k, 1, 1))
        rec = make_record(np.zeros((k, 3)), errs, cov_pos=covs)
        rot = exp_so3(np.array([0.3, -0.5, 0.7]))
        rec_rot = make_record(np.zeros((k, 3)), errs @ rot.T,
                              cov_pos=np.einsum("ij,njk,lk->nil", rot, covs,
                                                rot))
        assert_allclose(anees(rec, "position"), anees(rec_rot, "position"),
                        atol=1e-10)

    def test_non_finite_block_gives_nan(self):
        covs = np.tile(np.eye(3), (4, 1, 1))
        covs[2, 0, 0] = np.inf
        rec = make_record(np.zeros((4, 3)), np.full((4, 3), 0.1),
                          cov_pos=covs)
        assert np.isnan(anees(rec, "position"))

    def test_unknown_block_rejected(self):
        rec = make_record(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            anees(rec, "velocity")


def loop_attitude_errors(run):
    """Per-tick reference for RunRecord.attitude_errors."""
    return np.array([log_so3(rot_of(qe).T @ rot_of(qt))
                     for qe, qt in zip(run.q_est, run.q_true)])


def loop_anees(run, block, dof=3):
    """Per-tick reference for anees: cond test and solve tick by tick."""
    errs = (run.position_errors() if block == "position"
            else loop_attitude_errors(run))
    covs = run.cov_pos if block == "position" else run.cov_att
    vals = [float(e @ np.linalg.solve(p, e)) / dof
            for e, p in zip(errs, covs) if not np.linalg.cond(p) > 1e12]
    return float(np.mean(vals)) if vals else float("nan")


class TestBatchedAgainstLoops:
    def random_record(self, rng, k=200):
        q_est = np.array([quat_of(exp_so3(rng.normal(size=3)))
                          for _ in range(k)])
        q_true = np.array([quat_mul(q, quat_of(exp_so3(rng.normal(size=3))))
                           for q in q_est])
        a = rng.normal(size=(2, k, 3, 3))
        covs = a @ np.swapaxes(a, 2, 3) * 0.01 + 1e-4 * np.eye(3)
        return RunRecord(np.arange(k, dtype=float), rng.normal(size=(k, 3)),
                         q_true, rng.normal(size=(k, 3)), q_est, covs[0],
                         covs[1])

    def test_attitude_errors_near_pi_and_identity(self):
        rng = np.random.default_rng(6)
        rec = self.random_record(rng)
        axis = np.array([0.6, -0.8, 0.0])
        for k, angle in ((3, np.pi - 1e-9), (4, np.pi - 5e-7), (5, np.pi),
                         (6, 0.0), (7, 1e-9)):
            rec.q_true[k] = quat_mul(rec.q_est[k],
                                     quat_of(exp_so3(angle * axis)))
        got = rec.attitude_errors()
        want = loop_attitude_errors(rec)
        assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.linalg.norm(got[3]) > np.pi - 1e-6

    def test_anees_with_singular_ticks(self, caplog):
        rng = np.random.default_rng(7)
        rec = self.random_record(rng)
        rec.cov_pos[10] = 0.0
        rec.cov_pos[11] = np.diag([1.0, 1.0, 1e-14])
        rec.cov_att[12] = 0.0
        for block in ("position", "orientation"):
            with caplog.at_level("WARNING", logger="orekf.metrics"):
                caplog.clear()
                got = anees(rec, block)
            assert_allclose(got, loop_anees(rec, block), rtol=1e-12)
            assert "skipped" in caplog.text

    def test_all_ticks_singular_is_nan(self):
        rec = make_record(np.zeros((3, 3)), np.ones((3, 3)),
                          cov_pos=np.zeros((3, 3, 3)))
        assert np.isnan(anees(rec, "position"))


@pytest.mark.filterwarnings("error")
def test_diverged_estimate_overflows_to_inf_without_warnings():
    p_est = np.zeros((3, 3))
    p_est[-1] = 6e294  # squares to inf
    rec = make_record(np.zeros((3, 3)), p_est)
    assert rmse_position(rec) == np.inf
    assert max_position_error(rec) == np.inf
    assert anees(rec, "position") == np.inf
