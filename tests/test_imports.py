"""Every module-level import in src/orekf, tests and demos is used or
re-exported, every top-level definition is read somewhere, and the CLI
starts without scipy."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import orekf

MODULES = sorted(Path(orekf.__file__).parent.glob("*.py"))
ROOT = Path(orekf.__file__).parents[2]
# the code that may read a definition of src/orekf
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
# the modules whose imports must all be used
IMPORTERS = MODULES + sorted(p for d in ("tests", "demos")
                             for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that the module never
    reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nx = np.sqrt(pi)\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: (
    p.name if p in MODULES else f"{p.parent.name}/{p.name}"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(tree: ast.Module) -> dict:
    """{name: index of the top-level statement} of the functions, classes
    and constants a module defines, dunders left out."""
    names = {}
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = i
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.update((n.id, i) for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return {n: i for n, i in names.items() if not n.startswith("__")}


def read_names(tree: ast.Module):
    """(name, index of the top-level statement) of every read: loaded
    names, attributes, imported names and string constants, since a probe
    table names functions as strings."""
    for i, stmt in enumerate(tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, i
            elif isinstance(node, ast.Attribute):
                yield node.attr, i
            elif isinstance(node, ast.alias):
                for part in node.name.split("."):
                    yield part, i
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                yield node.value, i


def orphans(definers: dict, readers: dict) -> list:
    """(module, name) of each top-level definition of the definer sources
    that no statement of the reader sources reads, apart from the
    definition itself; both map a path to its source."""
    where = defaultdict(set)
    for path, source in readers.items():
        for name, i in read_names(ast.parse(source)):
            where[name].add((path, i))
    return sorted((path, name)
                  for path, source in definers.items()
                  for name, i in defined_names(ast.parse(source)).items()
                  if not where[name] - {(path, i)})


def test_finds_a_definition_nothing_reads():
    lib = ("import math\nLIMIT = 3\nUNUSED = 4\n"
           "def f(n):\n    return f(n - 1) if n else LIMIT\n"
           "def g():\n    return math.pi\nclass K:\n    pass\n")
    user = "from lib import g\nPROBE = ('lib', 'K')\n"
    assert orphans({"lib": lib}, {"lib": lib, "user": user}) == [
        ("lib", "UNUSED"), ("lib", "f")]


def test_every_definition_is_read():
    sources = {p: p.read_text(encoding="utf-8") for p in READERS}
    assert orphans({p: sources[p] for p in MODULES}, sources) == []


def test_cli_imports_no_scipy():
    """scipy is a test dependency only: importing it would cost most of a
    CLI start. A fresh interpreter sees only what orekf itself imports."""
    code = ("import sys, orekf.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(orekf.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
