"""Static checks on the package source: no dead imports, no stale
exports, no numpy.

Each module under src/ljchain is parsed with ast, never imported, so a
name deleted from one module and left in another's import list or
__all__ shows up here even where no test calls it.  numpy is a test
dependency only: the last test imports the command line in a fresh
interpreter and checks that numpy stays out of it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ljchain"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _imported(tree):
    """Names bound by the module's imports, except from __future__."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _top_level(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names | set(_imported(tree))


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"__init__", "potential", "energy", "landau",
                                         "transition", "hardcore", "oracle", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_all_names(tree))
    unused = [name for name in _imported(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    tree = _parse(path)
    exported = _all_names(tree)
    assert len(exported) == len(set(exported)), f"{path.name}: duplicate __all__ entries"
    missing = [name for name in exported if name not in _top_level(tree)]
    assert missing == [], f"{path.name} exports names it does not define: {missing}"


def _imported_modules(tree):
    """Top-level names of the modules the source imports."""
    mods = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods.append(node.module.split(".")[0])
    return mods


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_import(path):
    assert "numpy" not in _imported_modules(_parse(path)), \
        f"{path.name} imports numpy, which only the tests may use"


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, ljchain.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.strip() == "[]"
