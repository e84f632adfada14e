"""The three benchmark workloads, driven through orekf's public CLI functions.

An operation is one closed-loop step: the next starts when the previous one
has finished. Each operation runs every (filter, gating) configuration of
its workload once, so operations of one workload cost the same on average.

Every stream is built through ``RunConfig``: ``RunConfig.trajectory()``
writes the run duration into the shared preset entry, and the workloads use
different durations, so reading a preset's trajectory directly would pick
up whichever duration ran last.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from orekf import cli
from orekf import metrics as mt
from orekf.config import RunConfig

# Quality metrics come from this fixed seed, the same for every --seed, so
# that they are exactly reproducible and any change of accuracy shows.
REFERENCE_SEED = 20260217

CHECK_TASKS = 4     # campaign pool tasks recomputed serially per run

METRIC_KEYS = ("rmse_position_m", "rmse_orientation_deg",
               "max_position_error_m", "anees_position", "anees_orientation")


@dataclasses.dataclass(frozen=True)
class Size:
    """Run lengths and sweep size; the smoke tests shrink them."""

    campaign_duration: float = 20.0
    runs_per_cell: int = 4
    crowded_duration: float = 20.0
    replay_duration: float = 60.0
    warmup_duration: float = 2.0


FULL = Size()


@dataclasses.dataclass
class OpResult:
    runs: int                   # filter runs completed
    digest: str                 # SHA-256 of the operation's outputs
    run_metrics: list           # one metrics dict per filter run
    failures: list              # failed output checks, as messages
    sweeps: list = dataclasses.field(default_factory=list)


def derive_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence([base, *key]).generate_state(1)[0])


def run_metrics(record) -> dict:
    return {
        "diverged": int(record.diverged),
        "n_ticks": record.n_ticks,
        "rmse_position_m": mt.rmse_position(record),
        "rmse_orientation_deg": mt.rmse_orientation(record),
        "max_position_error_m": mt.max_position_error(record),
        "anees_position": mt.anees(record, "position"),
        "anees_orientation": mt.anees(record, "orientation"),
    }


def check_run(label: str, met: dict, cfg: RunConfig) -> list:
    """A run that did not diverge covers every tick with finite metrics."""
    if met["diverged"]:
        return []
    failures = []
    ticks = int(round(cfg.duration * cfg.cam_rate)) + 1
    if met["n_ticks"] != ticks:
        failures.append(f"{label}: {met['n_ticks']} ticks, expected {ticks}")
    bad = [k for k in METRIC_KEYS if not math.isfinite(met[k])]
    if bad:
        failures.append(f"{label}: non-finite {', '.join(bad)}")
    return failures


def quality(run_metrics_list) -> dict:
    """Accuracy over the runs that did not diverge."""
    kept = [m for m in run_metrics_list if not m["diverged"]]
    out = {"converged_frac": len(kept) / len(run_metrics_list)}
    for key in ("rmse_position_m", "rmse_orientation_deg"):
        out[key] = float(np.mean([m[key] for m in kept])) if kept else math.inf
    out["anees_position_gap"] = (
        abs(float(np.mean([m["anees_position"] for m in kept])) - 1.0)
        if kept else math.inf)
    return out


class Workload:
    """Configurations, set-up and one operation of a workload."""

    name = ""

    def __init__(self, size: Size, workers: int, work_dir: Path):
        self.size = size
        self.workers = workers
        self.dir = Path(work_dir)
        self.configs = []

    def build_configs(self) -> list:
        raise NotImplementedError

    def setup(self, seed: int):
        """Validate the configurations and warm up every code path."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = [c.validate() for c in self.build_configs()]
        for cfg in self.configs:
            warm = dataclasses.replace(cfg, duration=self.size.warmup_duration)
            cli.execute_run(warm, 0)

    def op_seed(self, seed: int, n: int) -> int:
        return derive_seed(seed, n)

    def run_op(self, op_seed: int) -> OpResult:
        raise NotImplementedError

    def verify(self, done: list, seed: int) -> dict:
        """Checks that need more than one operation's own outputs.

        done is a list of (operation index, OpResult); returns
        {operation index: [failure messages]}.
        """
        return {}


class Campaign(Workload):
    """One sweep per filter over the corners of the criterion-4 grid."""

    name = "campaign"

    def build_configs(self):
        return [RunConfig(preset="preset02", filter=f, gating="none",
                          duration=self.size.campaign_duration,
                          imu_sigma_acc=0.15, imu_sigma_gyro=0.008,
                          runs_per_cell=self.size.runs_per_cell,
                          sweep_sigma_p=(0.01, 0.3),
                          sweep_sigma_theta=(0.0175, 0.35))
                for f in ("direct", "inverse")]

    def run_op(self, op_seed):
        digest = hashlib.sha256()
        runs, failures, sweeps = [], [], []
        for cfg in self.configs:
            cfg = dataclasses.replace(cfg, seed=op_seed)
            results = cli.run_sweep_cells(cfg, self.workers)
            out = self.dir / cfg.filter
            cli.write_sweep_outputs(out, cfg, results)
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            for key in sorted(results):
                met = results[key][1]
                runs.append(met)
                failures += check_run(f"{cfg.filter} task {key}", met, cfg)
            sweeps.append((cfg, results))
        return OpResult(len(runs), digest.hexdigest(), runs, failures, sweeps)

    def verify(self, done, seed):
        """Recompute a seeded sample of pool tasks serially; each must equal
        the pool's result."""
        rng = np.random.default_rng(seed)
        failures = {}
        for _ in range(CHECK_TASKS):
            n, res = done[int(rng.integers(len(done)))]
            cfg, sweep = res.sweeps[int(rng.integers(len(res.sweeps)))]
            keys = sorted(sweep)
            key = keys[int(rng.integers(len(keys)))]
            _, _, _, seed_s, met_s = cli._sweep_task((cfg, *key))
            if (seed_s, repr(met_s)) != (sweep[key][0], repr(sweep[key][1])):
                failures.setdefault(n, []).append(
                    f"{cfg.filter} task {key}: pool result differs from the "
                    f"serial recomputation")
        return failures


class Crowded(Workload):
    """Single runs on four objects with chi-square gating."""

    name = "crowded"

    def build_configs(self):
        return [RunConfig(preset="preset06", filter=f, gating=g,
                          sigma_mode="exact",
                          duration=self.size.crowded_duration)
                for f, g in (("direct", "chi2p"), ("inverse", "chi2"))]

    def run_op(self, op_seed):
        digest = hashlib.sha256()
        runs, failures = [], []
        for cfg in self.configs:
            _, _, record = cli.execute_run(cfg, op_seed)
            met = run_metrics(record)
            for arr in (record.t, record.p_est, record.q_est, record.cov_pos,
                        record.cov_att):
                digest.update(arr.tobytes())
            digest.update(repr(sorted(met.items())).encode())
            digest.update(repr(sorted(record.counts.items())).encode())
            runs.append(met)
            failures += check_run(f"{cfg.filter}/{cfg.gating}", met, cfg)
        return OpResult(len(runs), digest.hexdigest(), runs, failures)


class Replay(Workload):
    """Replays of recorded logs, reading and writing files every time."""

    name = "replay"
    OUTPUTS = ("run.csv", "summary.csv")

    def build_configs(self):
        return [RunConfig(preset="preset10", filter=f, gating=g,
                          sigma_mode="episodes",
                          duration=self.size.replay_duration)
                for f, g in (("direct", "aorp"), ("inverse", "aor"))]

    def setup(self, seed):
        """Validate the configurations and record one log per config; the
        recording runs are the warm-up."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = [dataclasses.replace(c, seed=derive_seed(seed, 0))
                        .validate() for c in self.build_configs()]
        for cfg in self.configs:
            cli.cmd_run(cfg, self.dir / f"original-{cfg.filter}")

    def op_seed(self, seed, n):
        return 0  # every operation replays the logs recorded in set-up

    def run_op(self, op_seed):
        digest = hashlib.sha256()
        runs, failures = [], []
        for cfg in self.configs:
            original = self.dir / f"original-{cfg.filter}"
            out = self.dir / f"replay-{cfg.filter}"
            met = cli.cmd_replay(original / "replay.log", cfg, out)
            for name in self.OUTPUTS:
                data = (out / name).read_bytes()
                digest.update(name.encode() + b"\0" + data)
                if data != (original / name).read_bytes():
                    failures.append(f"{cfg.filter}/{cfg.gating}: replayed "
                                    f"{name} differs from the original run")
            runs.append(met)
            failures += check_run(f"{cfg.filter}/{cfg.gating}", met, cfg)
        return OpResult(len(runs), digest.hexdigest(), runs, failures)


WORKLOADS = {w.name: w for w in (Campaign, Crowded, Replay)}
