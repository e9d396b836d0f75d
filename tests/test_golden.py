"""Byte-exact golden outputs of the command line.

Each case of tests/golden/regen.py must print exactly its recorded
stdout and exit with its recorded status.  A change that moves output
on purpose regenerates the files with that script and records its
per-column summary.
"""

import importlib.util
import json
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
