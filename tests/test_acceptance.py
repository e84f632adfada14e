"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured numbers. Criteria 4, 5 and 7 run the paper's
Monte Carlo protocols through orekf.cli (run_sweep_cells, execute_run), so
this module is the long pole of the test run."""

import os
import time

import numpy as np

from orekf import cli
from orekf import update_direct as ud
from orekf import update_inverse as ui
from orekf.cli import main
from orekf.config import RunConfig
from orekf.gating import chi2_quantile
from orekf.geom3 import dR_transpose_sandwich, dR_transpose_vector, exp_so3, \
    log_so3
from orekf.metrics import anees, rmse_position
from orekf.presets import PRESETS, get_preset
from orekf.propagation import ImuNoise
from orekf.runner import FilterSetup, run_filter
from orekf.sim import SensorSpec, gen_imu, gen_measurements
from tests.test_update_direct import consistent_measurement, fd_jacobian, \
    random_state

# the episode campaigns (criteria 5b, 7): preset09's ambiguity windows, with
# the true excess over the reported rotation noise set by the scene
EPISODE_RUN = dict(preset="preset09", sigma_p=(0.02,) * 3,
                   sigma_theta=(0.0875,) * 3, imu_sigma_gyro=0.008)


def test_criterion_1_jacobians_match_finite_differences():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_direct = worst_inverse = 0.0
    for _ in range(1000):
        state = random_state(rng, 2)
        idx = int(rng.integers(0, 2))
        meas = consistent_measurement(state, idx)
        inv = ui.invert_measurement(meas)

        h_p, h_r = ud.jacobians(state, idx)
        fd_p = fd_jacobian(lambda s: ud.residual_position(
            s, s.objects[idx], meas), state)
        fd_r = fd_jacobian(lambda s: ud.residual_rotation(
            s, s.objects[idx], meas), state)
        worst_direct = max(worst_direct, np.max(np.abs(h_p - fd_p)),
                           np.max(np.abs(h_r - fd_r)))

        hi_p, hi_r = ui.jacobians(state, idx)
        fdi_p = fd_jacobian(lambda s: ui.residual_position(
            s, s.objects[idx], inv), state)
        fdi_r = fd_jacobian(lambda s: ui.residual_rotation(
            s, s.objects[idx], inv), state)
        worst_inverse = max(worst_inverse, np.max(np.abs(hi_p - fdi_p)),
                            np.max(np.abs(hi_r - fdi_r)))
    elapsed = time.perf_counter() - t0
    assert worst_direct < 1e-5
    assert worst_inverse < 1e-5
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: jacobian-vs-FD max error "
          f"direct={worst_direct:.2e}, inverse={worst_inverse:.2e} on 1000 "
          f"states in {elapsed:.1f}s (< 30 s)")


def test_criterion_2_derivative_identities_match_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-6
    worst_sandwich = worst_vector = 0.0
    for _ in range(1000):
        q, r, s = (exp_so3(rng.normal(size=3)) for _ in range(3))
        v = rng.normal(size=3)
        fd_s = np.zeros((3, 3))
        fd_v = np.zeros((3, 3))
        center = q @ r.T @ s
        for k in range(3):
            d = np.zeros(3)
            d[k] = step
            plus = q @ (r @ exp_so3(d)).T @ s
            minus = q @ (r @ exp_so3(-d)).T @ s
            fd_s[:, k] = (log_so3(center.T @ plus)
                          - log_so3(center.T @ minus)) / (2 * step)
            fd_v[:, k] = (q @ (r @ exp_so3(d)).T @ v
                          - q @ (r @ exp_so3(-d)).T @ v) / (2 * step)
        worst_sandwich = max(worst_sandwich,
                             np.max(np.abs(fd_s - dR_transpose_sandwich(q, r, s))))
        worst_vector = max(worst_vector,
                           np.max(np.abs(fd_v - dR_transpose_vector(q, r, v))))
    assert worst_sandwich < 1e-5
    assert worst_vector < 1e-5
    print(f"\nPASS criterion 2: rotation-derivative identities vs FD, max "
          f"error sandwich={worst_sandwich:.2e}, vector={worst_vector:.2e} "
          f"on 1000 triples")


def test_criterion_3_zero_noise_equivalence_on_every_preset():
    quiet = ImuNoise(0, 0, 0, 0)
    worst_rmse = 0.0
    worst_gap = 0.0
    for name in sorted(PRESETS):
        preset = get_preset(name)
        imu = gen_imu(preset.trajectory, quiet, 200.0, seed=0)
        meas = gen_measurements(preset.trajectory, preset.world,
                                SensorSpec(sigma_p=0.0, sigma_theta=0.0),
                                seed=0)
        rms = {}
        for ftype in ("direct", "inverse"):
            rec = run_filter(imu, meas, FilterSetup(imu_noise=quiet,
                                                    filter_type=ftype))
            assert not rec.diverged
            rms[ftype] = rmse_position(rec)
        assert rms["direct"] < 0.02, name
        assert rms["inverse"] < 0.02, name
        assert abs(rms["direct"] - rms["inverse"]) < 1e-3, name
        worst_rmse = max(worst_rmse, rms["direct"], rms["inverse"])
        worst_gap = max(worst_gap, abs(rms["direct"] - rms["inverse"]))
    print(f"\nPASS criterion 3: zero-noise RMSE < 2 cm on all 10 presets "
          f"(worst {worst_rmse * 100:.4f} cm), filters agree within 1 mm "
          f"(worst gap {worst_gap * 1000:.4f} mm)")


def test_criterion_4_noise_sweep_orderings():
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    workers = max(2, min(4, threads))
    # the 10-minute budget assumes a laptop (4+ hardware threads); on a
    # smaller machine it scales by the missing parallelism
    budget = 600.0 * max(1.0, 4.0 / threads)
    # the RunConfig defaults are the criterion-4 grid, 100 runs per cell
    runs = RunConfig.runs_per_cell

    def sweep(ftype):
        cfg = RunConfig(preset="preset02", filter=ftype, imu_sigma_acc=0.15,
                        imu_sigma_gyro=0.008)
        return cli.sweep_stats(cfg, cli.run_sweep_cells(cfg, workers))

    t0 = time.perf_counter()
    d_mean, d_std, _ = sweep("direct")
    i_mean, _, _ = sweep("inverse")
    elapsed = time.perf_counter() - t0

    # (a) near-identical first column: relative difference w.r.t. the larger
    for i in range(5):
        gap = abs(i_mean[i, 0] - d_mean[i, 0]) / max(i_mean[i, 0],
                                                     d_mean[i, 0])
        assert gap <= 0.15, (i, gap)
    # (b) rotation noise >= 10 deg with sigma_p <= 5 cm: inverse >= 2x direct
    for i in (0, 1):
        for j in (2, 3):
            assert i_mean[i, j] >= 2.0 * d_mean[i, j], (i, j)
    # (c) direct RMSE monotone non-decreasing in sigma_theta within 1 std
    for i in range(5):
        for j in range(3):
            assert d_mean[i, j + 1] >= d_mean[i, j] - d_std[i, j], (i, j)

    assert elapsed < budget
    ratios = [i_mean[i, j] / d_mean[i, j] for i in (0, 1) for j in (2, 3)]
    col0 = [abs(i_mean[i, 0] - d_mean[i, 0])
            / max(i_mean[i, 0], d_mean[i, 0]) for i in range(5)]
    print(f"\nPASS criterion 4: 2x20 cells x {runs} runs in {elapsed:.0f}s "
          f"on {threads} hardware threads (budget {budget:.0f}s; 600 s on a "
          f"4-thread laptop); 1-deg column agreement worst "
          f"{max(col0) * 100:.1f}% (<= 15%); inverse/direct ratios at 10/20 "
          f"deg: {', '.join(f'{r:.2f}' for r in ratios)} (all >= 2); direct "
          f"rows monotone within 1 std")


def test_criterion_5_consistency_and_misspecification():
    # (a) exact reporting, gating off: position ANEES in [0.8, 1.3]
    exact = RunConfig(preset="preset01", sigma_p=(0.02,) * 3,
                      sigma_theta=(0.05,) * 3)
    exact_anees = float(np.mean([anees(cli.execute_run(exact, seed)[2])
                                 for seed in range(100)]))
    assert 0.8 <= exact_anees <= 1.3

    # (b) fixed (mis-specified) covariance on an episode-bearing preset:
    # ANEES departs from [0.5, 2.0]
    fixed = RunConfig(sigma_mode="fixed", **EPISODE_RUN)
    fixed_anees = float(np.mean([anees(cli.execute_run(fixed, seed)[2])
                                 for seed in range(40)]))
    assert fixed_anees < 0.5 or fixed_anees > 2.0
    print(f"\nPASS criterion 5: exact-mode position ANEES {exact_anees:.3f} "
          f"in [0.8, 1.3] over 100 runs; fixed-covariance ANEES "
          f"{fixed_anees:.3f} departs [0.5, 2.0] on episode preset")


def test_criterion_6_chi2_gating_calibration():
    rng = np.random.default_rng(123)
    n = 100_000
    alpha = 0.05
    # full 6-DoF test on calibrated innovations
    a = rng.normal(size=(6, 6))
    s6 = a @ a.T + np.eye(6)
    z6 = rng.multivariate_normal(np.zeros(6), s6, size=n)
    d2_6 = np.einsum("ni,ni->n", z6 @ np.linalg.inv(s6), z6)
    rate6 = float(np.mean(d2_6 <= chi2_quantile(6, 1 - alpha)))
    assert abs(rate6 - (1 - alpha)) < 0.01
    # partial 3-DoF tests
    b = rng.normal(size=(3, 3))
    s3 = b @ b.T + np.eye(3)
    z3 = rng.multivariate_normal(np.zeros(3), s3, size=n)
    d2_3 = np.einsum("ni,ni->n", z3 @ np.linalg.inv(s3), z3)
    rate3 = float(np.mean(d2_3 <= chi2_quantile(3, 1 - alpha)))
    assert abs(rate3 - (1 - alpha)) < 0.01
    print(f"\nPASS criterion 6: chi-square acceptance rates 6-DoF "
          f"{rate6:.4f}, 3-DoF {rate3:.4f} vs 0.95 +- 0.01 on 1e5 draws")


def test_criterion_7_partial_rejection_superiority():
    episodes = get_preset("preset09").episodes
    means = {}
    diverged = {}
    for method in ("none", "chi2", "chi2p", "aor", "aorp"):
        vals, div = [], 0
        cfg = RunConfig(sigma_mode="episodes", gating=method, **EPISODE_RUN)
        for seed in range(20):
            _, _, rec = cli.execute_run(cfg, seed)
            if rec.diverged:
                div += 1
            else:
                vals.append(rmse_position(rec))
        means[method] = float(np.mean(vals)) if vals else float("inf")
        diverged[method] = div
    # during episodes the reported sigma_theta crosses both thresholds
    assert 0.0875 * episodes[0][2] > 0.35  # AOR threshold
    assert 0.0875 * episodes[0][2] > 0.175  # AORP threshold
    # (a) full aleatoric rejection dead-reckons through the episodes
    assert diverged["aor"] >= 1 or means["aor"] >= 1.5 * means["aorp"]
    # (b) partial rejection never diverges and wins overall
    assert diverged["aorp"] == 0
    for method in ("none", "chi2", "chi2p", "aor"):
        assert means["aorp"] < means[method], method
    print(f"\nPASS criterion 7: mean RMSE over 20 seeds: "
          + ", ".join(f"{m}={means[m]:.4f}"
                      + (f" ({diverged[m]} div)" if diverged[m] else "")
                      for m in ("none", "chi2", "chi2p", "aor", "aorp"))
          + f"; aorp lowest and never diverged; aor/aorp = "
            f"{means['aor'] / means['aorp']:.2f}")


CONFIG_TEXT = """\
config_version = 1
preset = preset01
duration = 4.0
seed = 11
filter = direct
gating = aorp
sigma_mode = exact
sigma_p = 0.02
sigma_theta = 0.05
"""

SWEEP_TEXT = """\
config_version = 1
preset = preset02
duration = 3.0
seed = 2
filter = direct
gating = none
sigma_mode = exact
runs_per_cell = 2
sweep_sigma_p = 0.02, 0.1
sweep_sigma_theta = 0.05
"""


def test_criterion_8_byte_identical_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG_TEXT)
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "r1")]) == 0
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "r2")]) == 0
    for name in ("run.csv", "summary.csv", "replay.log"):
        assert (tmp_path / "r1" / name).read_bytes() \
            == (tmp_path / "r2" / name).read_bytes(), name

    sweep_cfg = tmp_path / "sweep.txt"
    sweep_cfg.write_text(SWEEP_TEXT)
    assert main(["sweep", "--config", str(sweep_cfg), "--out",
                 str(tmp_path / "s1"), "--parallel", "1"]) == 0
    assert main(["sweep", "--config", str(sweep_cfg), "--out",
                 str(tmp_path / "s2"), "--parallel", "2"]) == 0
    for name in ("sweep_cells.csv", "sweep_table.csv", "sweep_table.md"):
        assert (tmp_path / "s1" / name).read_bytes() \
            == (tmp_path / "s2" / name).read_bytes(), name

    assert main(["replay", "--config", str(cfg),
                 "--log", str(tmp_path / "r1" / "replay.log"),
                 "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "r1" / "run.csv").read_bytes() \
        == (tmp_path / "rep" / "run.csv").read_bytes()
    print("\nPASS criterion 8: run, sweep (serial == parallel), and replay "
          "outputs byte-identical for identical (config, seed)")


def test_criterion_9_absolute_table_values_out_of_scope():
    # The published per-trajectory metric tables depend on a learned pose
    # predictor and unpublished trajectories, so their absolute numbers are
    # not reproducible here by design; criteria 5 and 7 are the
    # property-based substitutes and are asserted above.
    print("\nPASS criterion 9: absolute published table values are out of "
          "scope by design; ordering/consistency substitutes covered by "
          "criteria 5 and 7")
