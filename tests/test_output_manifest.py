"""tools/output_manifest.py runs, and its manifest is a function of the
code alone: two runs agree, and so do a serial and a two-worker sweep. No
digest is pinned, since another numpy or BLAS build may change them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "output_manifest.py"


def manifest(out: Path, parallel: int) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, str(SCRIPT), str(out), "--quick",
                    "--parallel", str(parallel)], env=env, check=True,
                   capture_output=True)
    return (out / "MANIFEST.sha256").read_text().splitlines()


def test_manifest_is_deterministic_and_independent_of_workers(tmp_path):
    first = manifest(tmp_path / "a", 2)
    lines = [line for line in first if not line.startswith("#")]
    files = {line.split("  ", 1)[1] for line in lines}
    # 9 grid + 6 crowded + 20 crowded-imu runs, each with its replay, and
    # two sweeps
    assert len(files) == 35 * 5 + 2 * 3
    assert {"sweep/direct/sweep_cells.csv",
            "grid/preset06-episodes-inverse-chi2/replay/run.csv"} <= files
    assert manifest(tmp_path / "b", 2) == first
    assert manifest(tmp_path / "c", 1) == first
