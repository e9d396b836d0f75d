"""Golden outputs of the `ljchain` command line.

    PYTHONPATH=src python tests/golden/regen.py [--check]

runs every case in CASES, rewrites `<name>.out` (its stdout) and
`exit_codes.json`, and prints, for each case whose output moved, how
many cells of each column changed and the largest relative change of
the numeric ones.  Trailer notes count as columns named `# key`.
With --check it prints the same summary, writes nothing, and exits 1
if any case moved; --help prints usage, and any other argument exits 2.
tests/test_golden.py compares the committed files byte for byte, so a
change that moves any output must regenerate them and record that
summary with the change.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXIT_CODES = HERE / "exit_codes.json"

# name -> argv; each runs as `ljchain <argv>`
CASES = {
    "energy-curve": ["energy-curve"],
    "phase-diagram": ["phase-diagram"],
    "delta-sweep": ["delta-sweep"],
    "beta-fit": ["beta-fit"],
    "hardcore-sweep": ["hardcore-sweep", "--sigma", "1.01"],
    "tau-fit": ["tau-fit"],
    "validate-quick": ["validate", "--quick"],
    "validate": ["validate"],
    "beta-fit-mie7-6": ["beta-fit", "--potential", "mie:n=7,m=6",
                        "--window", "1e-6:1e-3", "--points", "9"],
    "tau-fit-mie8-6": ["tau-fit", "--potential", "mie:n=8,m=6",
                       "--window", "1e-10:1e-6", "--points", "8"],
    "hardcore-sweep-sigma1.2": ["hardcore-sweep", "--sigma", "1.2",
                                "--a", "1.0:3.0:21"],
    "hardcore-sweep-sigma1.5": ["hardcore-sweep", "--sigma", "1.5",
                                "--a", "1.0:3.0:11"],
    "delta-sweep-mie100-99": ["delta-sweep", "--potential", "mie:n=100,m=99",
                              "--a", "1.0:2000:30"],
}

# validate's summary line ends in its run time, e.g. " (0.4s)"
_ELAPSED = re.compile(r" \(\d+\.\ds\)$", re.MULTILINE)


def run(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of `ljchain <argv>`, run in this process,
    with validate's run time stripped."""
    from ljchain.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, _ELAPSED.sub("", buf.getvalue())


def _columns(text: str, table: bool) -> dict[str, list[str]]:
    """Cells of an output by column: table columns by header name, each
    trailer note as `# key`, or, for plain text, every line as `line`."""
    lines = text.splitlines()
    if not table:
        return {"line": lines}
    cols: dict[str, list[str]] = {}
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("# ")))
    if rows:
        header, body = rows[0], rows[1:]
        for i, name in enumerate(header):
            cols[name] = [r[i] if i < len(r) else "" for r in body]
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            cols[f"# {key}"] = [value]
    return cols


def _rel_change(old: str, new: str) -> float | None:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def summarize(old: str, new: str, table: bool) -> list[str]:
    """One line per column whose cells differ between two outputs."""
    before, after = _columns(old, table), _columns(new, table)
    out = []
    for name in list(before) + [k for k in after if k not in before]:
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            out.append(f"  {name}: column {'added' if a is None else 'removed'}")
            continue
        if len(a) != len(b):
            out.append(f"  {name}: {len(a)} -> {len(b)} cells")
            continue
        changed = [(x, y) for x, y in zip(a, b) if x != y]
        if not changed:
            continue
        rels = [r for r in (_rel_change(x, y) for x, y in changed) if r is not None]
        worst = f", largest relative change {max(rels):.2e}" if rels else ""
        out.append(f"  {name}: {len(changed)} of {len(a)} cells changed{worst}")
    return out


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="regen.py", description="Rerun the golden cases and summarize what moved.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any case moved")
    check = parser.parse_args(args).check
    old_codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    codes = {}
    moved = False
    for name, argv in CASES.items():
        path = HERE / f"{name}.out"
        old = path.read_text() if path.exists() else None
        codes[name], new = run(argv)
        if not check:
            path.write_bytes(new.encode())
        if old is None:
            print(f"{name}: new")
            moved = True
            continue
        lines = summarize(old, new, table=argv[0] != "validate")
        if old_codes.get(name) != codes[name]:
            lines.append(f"  exit status: {old_codes.get(name)} -> {codes[name]}")
        changed = bool(lines) or new != old
        moved = moved or changed
        print(f"{name}: " + ("changed" if changed else "unchanged"))
        for ln in lines:
            print(ln)
    if check:
        return 1 if moved else 0
    EXIT_CODES.write_text(json.dumps(codes, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(main())
