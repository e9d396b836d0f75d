"""Byte-exact golden outputs of the command line.

Each case of tests/golden/regen.py must print exactly its recorded
stdout and exit with its recorded status.  A change that moves output
on purpose regenerates the files with that script and records its
per-column summary.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_output(name):
    code, out = regen.run(regen.CASES[name])
    assert code == EXIT_CODES[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_case_recorded():
    assert sorted(EXIT_CODES) == sorted(regen.CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(regen.CASES)


def test_summary_counts_changed_cells():
    old = "A,B\n1,x\n2,y\n# k=1.0\n"
    new = "A,B\n1,x\n2.002,z\n# k=1.5\n"
    assert regen.summarize(old, new, table=True) == [
        "  A: 1 of 2 cells changed, largest relative change 1.00e-03",
        "  B: 1 of 2 cells changed",
        "  # k: 1 of 1 cells changed, largest relative change 5.00e-01",
    ]
    assert regen.summarize(old, old, table=True) == []


def _golden_bytes():
    return {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir()) if p.is_file()}


@pytest.mark.parametrize("args,code", [(["--help"], 0), (["--check"], 0), (["--bogus"], 2)])
def test_regen_command_line_writes_nothing(args, code):
    # only a bare run rewrites the golden files; --check finds every
    # committed case unchanged
    before = _golden_bytes()
    done = subprocess.run([sys.executable, str(GOLDEN / "regen.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == code, done.stderr
    assert _golden_bytes() == before
    if args == ["--help"]:
        assert done.stdout.startswith("usage: regen.py")


def test_regen_check_reports_a_moved_case(monkeypatch, capsys):
    monkeypatch.setattr(regen, "CASES", {"delta-sweep": regen.CASES["delta-sweep"]})
    monkeypatch.setattr(regen, "run", lambda argv: (0, "A,Delta\n1,2\n"))
    before = _golden_bytes()
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out.startswith("delta-sweep: changed\n")
    assert _golden_bytes() == before
