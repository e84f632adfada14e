"""The number of independently settable values in src/orekf is pinned: a
change that adds or removes one updates SETTABLE_VALUES and says why."""

import ast
from pathlib import Path

import orekf

SETTABLE_VALUES = 125


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
