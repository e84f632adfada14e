"""Campaign runner CLI: single runs, Monte Carlo noise sweeps, and replays.

Every output file is a deterministic function of (config, seed): floats are
written with 17 significant digits, rows in a fixed order, and no wall-clock
data is embedded anywhere.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics as mt
from .config import ConfigError, RunConfig, parse_config
from .gating import METHODS
from .replay import ReplayLogError, _f, read_log, write_log
from .runner import MODELS, run_filter, run_lockstep
from .sim import IMU_RATE, SIGMA_MODES, gen_imu, gen_measurements


def child_seed(base: int, *key) -> int:
    """Deterministic per-task seed derived from the base seed and indices."""
    ss = np.random.SeedSequence((base,) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def simulate_streams(cfg: RunConfig, seed: int):
    traj = cfg.trajectory()
    imu = gen_imu(traj, cfg.imu_noise(), IMU_RATE, seed)
    meas = gen_measurements(traj, cfg.world(), cfg.sensor_spec(), seed)
    return imu, meas


def execute_run(cfg: RunConfig, seed: int):
    imu, meas = simulate_streams(cfg, seed)
    record = run_filter(imu, meas, cfg.filter_setup())
    return imu, meas, record


def _record_metrics(record) -> dict:
    return {
        "diverged": int(record.diverged),
        "n_ticks": record.n_ticks,
        "rmse_position_m": mt.rmse_position(record),
        "rmse_orientation_deg": mt.rmse_orientation(record),
        "max_position_error_m": mt.max_position_error(record),
        "anees_position": mt.anees(record, "position"),
        "anees_orientation": mt.anees(record, "orientation"),
    }


def _metric_cells(met: dict) -> list:
    """The values of a _record_metrics dict as CSV cells, in key order."""
    return [_f(v) if isinstance(v, float) else str(v) for v in met.values()]


def write_run_csv(path, record):
    cols = (["t"] + [f"p_true_{a}" for a in "xyz"]
            + [f"q_true_{a}" for a in "xyzw"]
            + [f"p_est_{a}" for a in "xyz"] + [f"q_est_{a}" for a in "xyzw"]
            + [f"var_pos_{a}" for a in "xyz"] + [f"var_att_{a}" for a in "xyz"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(record.n_ticks):
            row = ([record.t[k]] + list(record.p_true[k])
                   + list(record.q_true[k]) + list(record.p_est[k])
                   + list(record.q_est[k]) + list(np.diag(record.cov_pos[k]))
                   + list(np.diag(record.cov_att[k])))
            fh.write(",".join(_f(v) for v in row) + "\n")


def write_summary_csv(path, cfg: RunConfig, seed: int, record, met: dict):
    cols = (["preset", "filter", "gating", "sigma_mode", "seed"]
            + list(met.keys()) + sorted(record.counts.keys()))
    vals = ([cfg.preset, cfg.filter, cfg.gating, cfg.sigma_mode, str(seed)]
            + _metric_cells(met)
            + [str(record.counts[k]) for k in sorted(record.counts)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write(",".join(vals) + "\n")


def cmd_run(cfg: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    imu, meas, record = execute_run(cfg, cfg.seed)
    met = _record_metrics(record)
    write_run_csv(out_dir / "run.csv", record)
    write_summary_csv(out_dir / "summary.csv", cfg, cfg.seed, record, met)
    write_log(out_dir / "replay.log", imu, meas)
    return met


# Consecutive sweep tasks that run in lockstep, and the unit of work a pool
# worker receives. Per-run outputs do not depend on it; larger batches hold
# more runs' streams and records in memory at once.
BATCH = 8


def _sweep_batch(tasks):
    """Simulate and filter consecutive tasks (cfg, i, j, k) of one sweep in
    lockstep; returns (i, j, k, seed, metrics) per task, in task order."""
    cfg = tasks[0][0]
    seeds = [child_seed(cfg.seed, i, j, k) for _, i, j, k in tasks]
    streams = [simulate_streams(
        replace(cfg, sigma_p=(cfg.sweep_sigma_p[i],) * 3,
                sigma_theta=(cfg.sweep_sigma_theta[j],) * 3), seed)
        for (_, i, j, _), seed in zip(tasks, seeds)]
    records = run_lockstep(streams, cfg.filter_setup())
    return [(i, j, k, seed, _record_metrics(record))
            for (_, i, j, k), seed, record in zip(tasks, seeds, records)]


def _sweep_task(args):
    """One sweep task (cfg, i, j, k) on its own: the one-task batch."""
    return _sweep_batch([args])[0]


def run_sweep_cells(cfg: RunConfig, parallel: int):
    """Run the full (sigma_p x sigma_theta) grid, runs_per_cell runs each.

    The tasks run in batches of BATCH consecutive (cell, run) indices, in
    lockstep within a batch; a pool of at most `parallel` workers takes one
    batch at a time, and a sweep of one batch runs in this process. Results
    come back keyed by (cell, run) index, so the output is independent of
    completion order, batching and worker count.
    """
    tasks = [(cfg, i, j, k)
             for i in range(len(cfg.sweep_sigma_p))
             for j in range(len(cfg.sweep_sigma_theta))
             for k in range(cfg.runs_per_cell)]
    batches = [tasks[b:b + BATCH] for b in range(0, len(tasks), BATCH)]
    results = {}
    # a pool starts all of its workers at the first task
    workers = min(parallel, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_batch, batches))
    else:
        done = map(_sweep_batch, batches)
    for batch in done:
        for i, j, k, seed, met in batch:
            results[(i, j, k)] = (seed, met)
    return results


def sweep_stats(cfg: RunConfig, results):
    """Per-cell mean/std of position RMSE over non-diverged runs."""
    n_p, n_t = len(cfg.sweep_sigma_p), len(cfg.sweep_sigma_theta)
    mean = np.full((n_p, n_t), np.nan)
    std = np.full((n_p, n_t), np.nan)
    diverged = np.zeros((n_p, n_t), dtype=int)
    for i in range(n_p):
        for j in range(n_t):
            vals = []
            for k in range(cfg.runs_per_cell):
                _, met = results[(i, j, k)]
                if met["diverged"]:
                    diverged[i, j] += 1
                else:
                    vals.append(met["rmse_position_m"])
            if vals:
                mean[i, j] = float(np.mean(vals))
                std[i, j] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return mean, std, diverged


def write_sweep_outputs(out_dir: Path, cfg: RunConfig, results):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep_cells.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(["sigma_p", "sigma_theta", "run", "seed"]
                          + list(results[(0, 0, 0)][1])) + "\n")
        for i in range(len(cfg.sweep_sigma_p)):
            for j in range(len(cfg.sweep_sigma_theta)):
                for k in range(cfg.runs_per_cell):
                    seed, met = results[(i, j, k)]
                    fh.write(",".join(
                        [_f(cfg.sweep_sigma_p[i]), _f(cfg.sweep_sigma_theta[j]),
                         str(k), str(seed)] + _metric_cells(met)) + "\n")

    mean, std, diverged = sweep_stats(cfg, results)
    theta_deg = [np.degrees(t) for t in cfg.sweep_sigma_theta]
    cells = [["---" if np.isnan(m) else f"{m:.3f} +- {s:.3f}"
              for m, s in zip(mean_row, std_row)]
             for mean_row, std_row in zip(mean, std)]

    with open(out_dir / "sweep_table.csv", "w", encoding="utf-8") as fh:
        fh.write("sigma_p_m," + ",".join(f"{d:.3g}deg" for d in theta_deg) + "\n")
        for sp, row in zip(cfg.sweep_sigma_p, cells):
            fh.write(f"{sp:g}," + ",".join(row) + "\n")

    with open(out_dir / "sweep_table.md", "w", encoding="utf-8") as fh:
        fh.write(f"Position RMSE [m], mean +- std over {cfg.runs_per_cell} "
                 f"runs per cell ({cfg.filter} filter, gating "
                 f"{cfg.gating}); '---' marks cells where every run "
                 f"diverged; diverged runs are excluded from the "
                 f"statistics.\n\n")
        fh.write("| sigma_p \\ sigma_theta | "
                 + " | ".join(f"{d:.3g} deg" for d in theta_deg) + " |\n")
        fh.write("|" + "---|" * (len(theta_deg) + 1) + "\n")
        for sp, row, div_row in zip(cfg.sweep_sigma_p, cells, diverged):
            fh.write(f"| {sp * 100:g} cm | " + " | ".join(
                cell + (f" ({n} div)" if n and cell != "---" else "")
                for cell, n in zip(row, div_row)) + " |\n")


def cmd_sweep(cfg: RunConfig, out_dir: Path, parallel: int):
    results = run_sweep_cells(cfg, parallel)
    write_sweep_outputs(out_dir, cfg, results)
    return results


def cmd_replay(log_path: Path, cfg: RunConfig, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    imu, meas = read_log(log_path)
    record = run_filter(imu, meas, cfg.filter_setup())
    met = _record_metrics(record)
    write_run_csv(out_dir / "run.csv", record)
    write_summary_csv(out_dir / "summary.csv", cfg, cfg.seed, record, met)
    return met


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.filter is not None:
        cfg.filter = args.filter
    if args.gating is not None:
        cfg.gating = args.gating
    if getattr(args, "sigma_mode", None) is not None:
        cfg.sigma_mode = args.sigma_mode
    return cfg.validate()


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orekf",
        description="Object-relative EKF simulation and evaluation campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_sigma_mode=True):
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--filter", choices=tuple(MODELS), default=None)
        p.add_argument("--gating", choices=METHODS, default=None)
        if with_sigma_mode:
            p.add_argument("--sigma-mode", dest="sigma_mode",
                           choices=SIGMA_MODES, default=None)

    p_run = sub.add_parser("run", help="simulate and filter a single run")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo noise-grid campaign")
    common(p_sweep)
    p_sweep.add_argument("--parallel", type=_worker_count, default=1)

    p_replay = sub.add_parser("replay",
                              help="re-run a filter over a recorded log")
    common(p_replay, with_sigma_mode=False)
    p_replay.add_argument("--log", required=True, type=Path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "run":
            met = cmd_run(cfg, args.out)
        elif args.command == "sweep":
            cmd_sweep(cfg, args.out, args.parallel)
            met = None
        else:
            met = cmd_replay(args.log, cfg, args.out)
    except (ConfigError, ReplayLogError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if met is not None:
        status = "DIVERGED" if met["diverged"] else "ok"
        print(f"{status} rmse_position={met['rmse_position_m']:.4f} m "
              f"rmse_orientation={met['rmse_orientation_deg']:.3f} deg "
              f"anees_position={met['anees_position']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
