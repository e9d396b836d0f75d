"""The ljchain modules each subcommand loads, their lines and import time.

    PYTHONPATH=src python tests/loadcounts.py [--rounds K]

runs each table subcommand with its default flags, and `validate
--quick`, in fresh interpreters under -X importtime, and prints per
subcommand the ljchain modules it loaded, their total source lines (the
package's __init__ included), and the median over K runs (default 5) of
the summed cumulative import time of the top-level ljchain lines: the
package and the modules the subcommand imports when it runs.  The runs
import a copy of the package made without its __pycache__, under -B,
so each compiles the ljchain source it loads, as a process does in a
fresh checkout with bytecode writing off; the standard library's
bytecode is read as usual.  test_source.py imports its expected module
sets from here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "ljchain"

# the ljchain modules (besides the package itself) each table subcommand
# loads; validate loads every module
SOLVER = frozenset({"cli", "potential", "specfun", "transition"})
EXPECTED = {
    "delta-sweep": SOLVER,
    "phase-diagram": SOLVER,
    "hardcore-sweep": SOLVER | {"hardcore"},
    "tau-fit": SOLVER | {"hardcore"},
    "energy-curve": SOLVER | {"energy"},
    "beta-fit": SOLVER | {"energy", "landau"},
}
# hardcore-sweep has no default radius
EXTRA_ARGS = {"hardcore-sweep": ["--sigma", "1.01"], "validate": ["--quick"]}
_MARK = "loadcounts-modules:"


def argv_of(command: str) -> list[str]:
    """The subcommand with its default flags, output to the null device."""
    out = [] if command == "validate" else ["--out", os.devnull]
    return [command, *EXTRA_ARGS.get(command, []), *out]


def run(argv: list[str], path: str) -> tuple[list[str], float]:
    """(the ljchain modules loaded, summed top-level import seconds) of
    one fresh `main(argv)`, the package imported from path."""
    code = (f"from {PACKAGE}.cli import main; main({argv!r}); import sys; "
            f"print({_MARK!r}, *(m for m in sys.modules if m.startswith({PACKAGE!r})))")
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-B", "-X", "importtime", "-c", code],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    modules = proc.stdout.rsplit(_MARK, 1)[1].split()
    return sorted(modules), import_seconds(proc.stderr)


def import_seconds(stderr: str) -> float:
    """Summed cumulative time of the unindented ljchain lines of -X importtime."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if name.startswith(f" {PACKAGE}") and cumulative.strip().isdigit():
            total += int(cumulative)
    return total * 1e-6


def source_lines(modules) -> int:
    """Lines of the source files of the given ljchain modules."""
    total = 0
    for mod in modules:
        rel = "__init__" if mod == PACKAGE else mod[len(PACKAGE) + 1:]
        total += len((SRC / PACKAGE / f"{rel}.py").read_text().splitlines())
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5, help="runs per subcommand")
    args = parser.parse_args()
    print(f"{'subcommand':<16}{'lines':>6}{'import ms':>11}  modules")
    with tempfile.TemporaryDirectory() as path:
        shutil.copytree(SRC / PACKAGE, Path(path) / PACKAGE,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for command in [*EXPECTED, "validate"]:
            times = []
            for _ in range(args.rounds):
                modules, seconds = run(argv_of(command), path)
                times.append(seconds)
            short = [m[len(PACKAGE) + 1:] for m in modules if m != PACKAGE]
            print(f"{command:<16}{source_lines(modules):>6}"
                  f"{1e3 * statistics.median(times):>11.1f}  {' '.join(short)}")


if __name__ == "__main__":
    main()
