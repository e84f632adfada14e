"""The number of independently settable values in src/orekf is pinned: a
change that adds or removes one updates SETTABLE_VALUES and says why."""

import ast
from dataclasses import fields
from pathlib import Path

import orekf
from orekf.config import RunConfig

SETTABLE_VALUES = 97

# what a campaign varies; every other value is its owner's default or a
# module constant
RUN_CONFIG_FIELDS = [
    "preset", "duration", "seed", "filter", "gating", "sigma_mode", "sigma_p",
    "sigma_theta", "cam_rate", "imu_sigma_acc", "imu_sigma_gyro",
    "chi2_alpha", "match_gate", "runs_per_cell", "sweep_sigma_p",
    "sweep_sigma_theta", "episodes"]


def settable_values(source: str) -> int:
    """Annotated class-body fields plus defaulted positional and
    keyword-only parameters of every function."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def test_counts_fields_and_defaulted_parameters():
    source = ("class A:\n    x: int\n    y: float = 1.0\n    z = 3\n"
              "def f(a, b=1, *args, c, d=2, **kw):\n    pass\n")
    assert settable_values(source) == 4


def test_settable_value_count_is_pinned():
    sources = sorted(Path(orekf.__file__).parent.glob("*.py"))
    assert sum(settable_values(p.read_text(encoding="utf-8"))
               for p in sources) == SETTABLE_VALUES


def test_run_config_fields_are_pinned():
    assert [f.name for f in fields(RunConfig)] == RUN_CONFIG_FIELDS
