"""Static checks on the package source: no dead imports, no stale or
unused exports, no costly imports.

Each module under src/ljchain is parsed with ast, so a name deleted from
one module and left in another's import list, __all__ or the package's
lazy export map shows up here even where no test calls it; only the
check that each export is defined where it is listed imports the
modules.  numpy is a test dependency only, and the package does without
dataclasses and fractions, whose imports cost a command line process
more than most of its subcommands compute.  The last tests run the
command line in a fresh interpreter and check what it loaded: each
subcommand loads exactly the modules it runs (tests/loadcounts.py).
"""

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from loadcounts import EXPECTED, source_lines

SRC = Path(__file__).resolve().parent.parent / "src" / "ljchain"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(tree, name):
    """The value node of the top-level assignment to name, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    return None


def _lazy_exports(tree):
    """The package's map of lazily loaded names to their modules."""
    node = _assigned(tree, "_EXPORTS")
    return ast.literal_eval(node) if node is not None else {}


def _all_names(tree):
    node = _assigned(tree, "__all__")
    if node is None:
        return []
    names = []
    for e in node.elts:
        if isinstance(e, ast.Starred):      # [*_EXPORTS, ...] in the package
            names += list(_lazy_exports(tree))
        else:
            names.append(ast.literal_eval(e))
    return names


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
                                         "transition", "hardcore", "oracle", "cli",
                                         "validate"}


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
    lazy = _lazy_exports(tree)
    missing = [name for name in exported if name not in _top_level(tree) and name not in lazy]
    missing += [f"{module}.{name}" for name, module in lazy.items()
                if name not in _top_level(_parse(SRC / f"{module}.py"))]
    assert missing == [], f"{path.name} exports names it does not define: {missing}"
    # each export is defined where it is listed: no re-export of a name
    # that moved, and no stale entry in the lazy map
    owners = dict(lazy) if lazy else dict.fromkeys(exported, path.stem)
    elsewhere = []
    for name, module in owners.items():
        obj = getattr(import_module(f"ljchain.{module}"), name)
        owner = getattr(obj, "__module__", None)
        if owner is not None and owner != f"ljchain.{module}":
            elsewhere.append(f"{module}.{name} from {owner}")
    assert elsewhere == [], f"{path.name} exports names defined elsewhere: {elsewhere}"


def _script_entries():
    """module.name of each [project.scripts] entry, e.g. cli.main."""
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {ref.split(".", 1)[1].replace(":", ".")
            for ref in re.findall(r'=\s*"([^"]+)"', section)}


def test_every_export_is_used():
    # a name in a module's __all__ is reached from outside it: imported
    # by another module of the package, loaded lazily by the package, or
    # run as a console script.  A name only its own tests call is dead
    trees = {p.stem: _parse(p) for p in MODULES}
    used = _script_entries()
    used |= {f"{module}.{name}" for name, module in _lazy_exports(trees["__init__"]).items()}
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != stem:
                used |= {f"{node.module}.{a.name}" for a in node.names}
    unused = [f"{stem}.{name}" for stem, tree in trees.items() if stem != "__init__"
              for name in _all_names(tree) if f"{stem}.{name}" not in used]
    assert unused == [], f"exported but used by no other module: {unused}"


def _imported_modules(tree):
    """Top-level names of the modules the source imports."""
    mods = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods.append(node.module.split(".")[0])
    return mods


FORBIDDEN = ("numpy", "dataclasses", "fractions")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_import(path):
    found = sorted(set(FORBIDDEN) & set(_imported_modules(_parse(path))))
    assert found == [], f"{path.name} imports {found}, which the package does without"


def _loaded_after(code):
    """Top-level names and ljchain modules in sys.modules after running
    code in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code += "\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    names = out.split()
    return {n.split(".")[0] for n in names} | {n for n in names if n.startswith("ljchain.")}


def test_cli_import_leaves_numpy_out():
    loaded = _loaded_after("import ljchain.cli")
    assert sorted(loaded & {*FORBIDDEN, "inspect"}) == []


def _run_loads(argv):
    return _loaded_after(f"from ljchain.cli import main; main({argv + ['--out', os.devnull]!r})")


@pytest.mark.parametrize("argv", [
    ["delta-sweep", "--a", "1.0:2.0:3"],
    ["energy-curve", "--a", "1.0:2.0:3"],
    ["beta-fit", "--points", "8"],
    ["phase-diagram", "--a", "7:9:3"],
    ["hardcore-sweep", "--sigma", "1.01", "--a", "1.1:3.0:3"],
    ["tau-fit", "--points", "8"],
])
def test_subcommand_loads_only_what_it_runs(argv):
    loaded = _run_loads(argv)
    modules = {n for n in loaded if n.startswith("ljchain.")}
    assert sorted(modules) == sorted(f"ljchain.{m}" for m in EXPECTED[argv[0]])
    assert sorted(loaded & {*FORBIDDEN, "inspect"}) == []


def test_solver_loads_no_other_route():
    loaded = _loaded_after("import ljchain.transition")
    assert sorted(loaded & {"ljchain.energy", "ljchain.landau", "ljchain.quadrature"}) == []


def test_delta_sweep_source_budget():
    modules = {n for n in _run_loads(["delta-sweep"]) if n.startswith("ljchain")}
    assert source_lines(modules) <= 1700
