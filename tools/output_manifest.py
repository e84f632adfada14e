"""Write a fixed set of orekf outputs and a SHA-256 manifest of every file.

The set covers what a refactor must leave byte-identical:

* the 90 single runs of 10 presets x 3 sigma modes x (direct/none,
  direct/aorp, inverse/chi2) at seed 7;
* the crowded configs (preset06 exact, direct/chi2p and inverse/chi2) at
  seeds 0-2;
* the same two crowded configs at the campaign IMU noise (0.15 m/s^2/sqrt(Hz),
  0.008 rad/s/sqrt(Hz)) at seeds 0-9;
* the replay of each of these runs' logs;
* both campaign sweeps (preset02, no gating, direct and inverse, the corners
  of the criterion-4 grid, 4 runs per cell).

Every run lasts 20 s. Each run writes run.csv, summary.csv and replay.log,
each replay run.csv and summary.csv, and each sweep its three files. The
manifest (MANIFEST.sha256 in the output directory) starts with `#` lines
naming the Python, numpy and BLAS build, since bit identity holds only
within one build; the other lines are `sha256sum` lines sorted by path.

Compare a change with its parent by running the script at each and
diffing the two manifests:

    PYTHONPATH=src python tools/output_manifest.py OUT_DIR [--parallel 2]

--quick shrinks the set to 0.5 s runs and preset06 alone in the grid,
for a smoke test; its manifest says so and compares only with another
--quick manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import sys
from pathlib import Path

import numpy as np

from orekf.cli import cmd_replay, cmd_run, cmd_sweep
from orekf.config import RunConfig
from orekf.presets import PRESETS

MANIFEST = "MANIFEST.sha256"
SIGMA_MODES = ("exact", "fixed", "episodes")
GRID_SETUPS = (("direct", "none"), ("direct", "aorp"), ("inverse", "chi2"))
CROWDED_SETUPS = (("direct", "chi2p"), ("inverse", "chi2"))
CAMPAIGN_IMU = {"imu_sigma_acc": 0.15, "imu_sigma_gyro": 0.008}
FULL = (20.0, tuple(PRESETS))       # (run length in s, grid presets)
QUICK = (0.5, ("preset06",))


def single_runs(presets, duration: float) -> dict:
    """{directory name: config} of every single run of the set."""
    runs = {}
    for preset in presets:
        for mode in SIGMA_MODES:
            for flt, gating in GRID_SETUPS:
                runs[f"grid/{preset}-{mode}-{flt}-{gating}"] = RunConfig(
                    preset=preset, duration=duration, seed=7, filter=flt,
                    gating=gating, sigma_mode=mode)
    for flt, gating in CROWDED_SETUPS:
        for seed in range(3):
            runs[f"crowded/{flt}-{gating}-s{seed}"] = RunConfig(
                preset="preset06", duration=duration, seed=seed, filter=flt,
                gating=gating)
        for seed in range(10):
            runs[f"crowded-imu/{flt}-{gating}-s{seed}"] = RunConfig(
                preset="preset06", duration=duration, seed=seed, filter=flt,
                gating=gating, **CAMPAIGN_IMU)
    return runs


def sweeps(duration: float) -> dict:
    """{directory name: config} of the two campaign sweeps."""
    return {f"sweep/{flt}": RunConfig(
        preset="preset02", duration=duration, filter=flt, gating="none",
        runs_per_cell=4, sweep_sigma_p=(0.01, 0.3),
        sweep_sigma_theta=(0.0175, 0.35), **CAMPAIGN_IMU)
        for flt in ("direct", "inverse")}


def environment() -> list:
    """`#` lines naming the interpreter, numpy and the BLAS it links."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()} "
            f"({platform.python_implementation()}, {platform.machine()})",
            f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}: "
            f"{blas.get('openblas configuration', '-')}"]


def digests(out: Path) -> list:
    """`sha256  path` of every file under out but the manifest, by path."""
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"{p.relative_to(out).as_posix()}"
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != MANIFEST]


def write_set(out: Path, duration: float, presets, parallel: int) -> Path:
    """Write the set under out and its manifest; returns the manifest."""
    for name, cfg in single_runs(presets, duration).items():
        cfg = cfg.validate()
        cmd_run(cfg, out / name)
        cmd_replay(out / name / "replay.log", cfg, out / name / "replay")
    for name, cfg in sweeps(duration).items():
        cmd_sweep(cfg.validate(), out / name, parallel)
    header = environment() + [f"# duration {duration:g} s, presets "
                        f"{','.join(presets)}"]
    manifest = out / MANIFEST
    manifest.write_text("\n".join(header + digests(out)) + "\n",
                        encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="output directory (new)")
    parser.add_argument("--parallel", type=int, default=2,
                        help="sweep worker processes (default 2)")
    parser.add_argument("--quick", action="store_true",
                        help="0.5 s runs, preset06 alone in the grid")
    args = parser.parse_args(argv)
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    duration, presets = QUICK if args.quick else FULL
    manifest = write_set(args.out, duration, presets, args.parallel)
    files = sum(1 for line in manifest.read_text().splitlines()
                if not line.startswith("#"))
    print(f"{files} files; manifest {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
