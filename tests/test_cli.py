"""End-to-end tests of the command line interface.

Invocations go through main() in-process; the contract under test is
the CSV schema, the trailer notes, exit codes and byte determinism.
"""

import csv
import io
import math
import os
import subprocess
import sys

import pytest

import ljchain
from ljchain.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    notes = {}
    for ln in text.splitlines():
        if ln.startswith("# "):
            k, _, v = ln[2:].partition("=")
            notes[k] = v
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return rows[0], rows[1:], notes


# --------------------------------------------------------------- energy-curve

def test_energy_curve_schema(capsys):
    code, out, err = run_cli(capsys, "energy-curve", "--a", "1.0:1.3:7")
    assert code == 0
    header, rows, notes = parse_csv(out)
    assert header == ["A", "E_ground", "E_equidistant_continuation",
                      "phase", "Delta"]
    assert len(rows) == 7
    assert notes["potential"] == "mie:n=12,m=6"
    A_c = float(notes["A_c"])
    for row in rows:
        A = float(row[0])
        assert row[3] == ("equidistant" if A <= A_c else "bipartite")
        if row[3] == "bipartite":
            assert float(row[1]) < float(row[2])
            assert float(row[4]) > 1.0
        else:
            assert row[1] == row[2]
            assert float(row[4]) == 1.0


def test_energy_curve_phase_flip_present(capsys):
    code, out, _ = run_cli(capsys, "energy-curve")
    assert code == 0
    _, rows, _ = parse_csv(out)
    phases = {row[3] for row in rows}
    assert phases == {"equidistant", "bipartite"}


# -------------------------------------------------------------- phase-diagram

def test_phase_diagram(capsys):
    code, out, err = run_cli(capsys, "phase-diagram",
                             "--a", "7:12:6", "--potential", "mie:n=12,m=6")
    assert code == 0
    header, rows, notes = parse_csv(out)
    assert header == ["n", "A_c"]
    assert len(rows) == 6
    assert notes["m"] == "6"
    acs = [float(r[1]) for r in rows]
    # crossing location falls with stiffer repulsion
    assert all(x > y for x, y in zip(acs, acs[1:]))
    assert notes["A_c_decreasing_in_n"] == "True"


# ---------------------------------------------------------------- delta-sweep

def test_delta_sweep_schema(capsys):
    code, out, _ = run_cli(capsys, "delta-sweep", "--a", "1.0:2.0:11")
    assert code == 0
    header, rows, notes = parse_csv(out)
    assert header == ["A", "Delta", "branch", "residual", "error"]
    assert len(rows) == 11
    assert notes["failures"] == "0"
    for row in rows:
        assert row[2] in ("trivial", "bipartite")
        assert row[4] == ""          # no per-row errors
        if row[2] == "bipartite":
            assert float(row[3]) < 1e-10


def test_delta_sweep_monotone_output(capsys):
    code, out, _ = run_cli(capsys, "delta-sweep")
    _, rows, _ = parse_csv(out)
    deltas = [float(r[1]) for r in rows]
    assert all(x <= y for x, y in zip(deltas, deltas[1:]))


# ------------------------------------------------------------------- beta-fit

def test_beta_fit_output(capsys):
    code, out, _ = run_cli(capsys, "beta-fit", "--points", "10",
                           "--window", "1e-7:1e-4")
    assert code == 0
    header, rows, notes = parse_csv(out)
    assert header == ["A_minus_Ac", "Delta_minus_1", "error"]
    assert len(rows) == 10
    assert abs(float(notes["exponent"]) - 0.5) < 1e-3
    assert float(notes["r_squared"]) > 0.9999
    assert notes["theory_exponent"] == "0.5"
    theory = float(notes["theory_prefactor"])
    pinned = float(notes["prefactor_at_theory_exponent"])
    assert abs(pinned / theory - 1.0) < 1e-2


# ------------------------------------------------------------- hardcore-sweep

def test_hardcore_sweep_clean(capsys):
    code, out, _ = run_cli(capsys, "hardcore-sweep", "--sigma", "1.1",
                           "--a", "1.1:3.0:20")
    assert code == 0
    header, rows, notes = parse_csv(out)
    assert header == ["A", "Delta", "branch", "residual", "error"]
    assert notes["sigma"] == "1.1"
    assert float(notes["A_star"]) == pytest.approx(1.10893035, abs=1e-6)
    branches = {r[2] for r in rows}
    assert "boundary" in branches


def test_hardcore_sweep_infeasible_rows_exit_2(capsys):
    # grid points below sigma are infeasible: per-row error plus exit 2
    code, out, _ = run_cli(capsys, "hardcore-sweep", "--sigma", "1.5",
                           "--a", "1.0:2.0:6")
    assert code == 2
    _, rows, notes = parse_csv(out)
    n_bad = sum(1 for r in rows if r[4] != "")
    assert n_bad >= 2
    assert notes["failures"] == str(n_bad)
    for r in rows:
        if r[4] != "":
            assert math.isnan(float(r[1]))


def test_hardcore_sweep_sigma_from_potential(capsys):
    code, out, _ = run_cli(capsys, "hardcore-sweep",
                           "--potential", "mie:n=12,m=6,sigma=1.1",
                           "--a", "1.2:2.0:5")
    assert code == 0
    _, _, notes = parse_csv(out)
    assert notes["sigma"] == "1.1"


def test_hardcore_sweep_requires_sigma(capsys):
    code, out, err = run_cli(capsys, "hardcore-sweep", "--a", "1.2:2.0:5")
    assert code == 2
    assert "sigma" in err


def test_hardcore_sweep_no_junction_note(capsys):
    code, out, _ = run_cli(capsys, "hardcore-sweep", "--sigma", "1.3",
                           "--a", "1.3:2.0:5")
    assert code == 0
    _, _, notes = parse_csv(out)
    assert notes["A_star"] == "none"


# -------------------------------------------------------------------- tau-fit

def test_tau_fit_output(capsys):
    code, out, _ = run_cli(capsys, "tau-fit", "--points", "8",
                           "--window", "1e-10:1e-8")
    assert code == 0
    header, rows, notes = parse_csv(out)
    assert header == ["sigma_minus_1", "A_star", "delta_star", "error"]
    assert len(rows) == 8
    assert abs(float(notes["exponent"]) + 1.0 / 8.0) < 5e-3
    assert float(notes["theory_exponent"]) == -1.0 / 8.0


# ------------------------------------------------------------------- validate

def test_validate_quick(capsys):
    code, out, _ = run_cli(capsys, "validate", "--quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(ln.startswith("ok  ") for ln in lines[:-1])
    assert "0 failures" in lines[-1]


def test_validate_times_each_check_on_stderr(capsys):
    code, out, err = run_cli(capsys, "validate", "--quick")
    assert code == 0
    names = [ln[5:].partition(": ")[0] for ln in out.splitlines()[:-1]]
    timed = err.splitlines()
    assert len(timed) == len(names) == 7
    for name, line in zip(names, timed):
        head, _, seconds = line.rpartition(": ")
        assert head == f"validate: {name}"
        assert seconds.endswith("s") and float(seconds[:-1]) >= 0.0


# ----------------------------------------------------------- generic behavior

def test_out_file_and_determinism(tmp_path, capsys):
    f1 = tmp_path / "run1.csv"
    f2 = tmp_path / "run2.csv"
    for f in (f1, f2):
        code = main(["delta-sweep", "--a", "1.0:2.0:11", "--out", str(f)])
        assert code == 0
    capsys.readouterr()
    b1 = f1.read_bytes()
    b2 = f2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"A,Delta,branch,residual,error\n")


def test_digits_control(capsys):
    code, out, _ = run_cli(capsys, "energy-curve", "--a", "1.0:1.0:1",
                           "--digits", "6")
    assert code == 0
    _, rows, _ = parse_csv(out)
    val = rows[0][1]
    mantissa = val.lstrip("-").replace(".", "").replace("e", " ").split()[0]
    assert len(mantissa.lstrip("0")) <= 6


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["delta-sweep", "--a", "nonsense"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_unknown_command_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_bad_potential_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy-curve", "--potential", "mie:n=12"])
    assert exc.value.code == 1


def test_computation_error_exit_2(capsys):
    # generic riesz potential has no crossing machinery: computation error
    code, _, err = run_cli(capsys, "delta-sweep",
                           "--potential", "riesz:c=1,s=6")
    assert code == 2
    assert err != ""
    # the A_c trailer raises critical_point's own error
    assert err == "ljchain: error: critical point is defined for n-m potentials\n"
    code, _, err = run_cli(capsys, "energy-curve", "--potential", "riesz:c=1,s=6")
    assert code == 2
    assert err == "ljchain: error: stationarity machinery requires an n-m potential\n"
    code, _, err = run_cli(capsys, "phase-diagram", "--potential", "riesz:c=1,s=6")
    assert code == 2
    assert err == ("ljchain: error: phase-diagram requires an n-m potential "
                   "(m is held fixed)\n")


# ---------------------------------------------------------------- closed pipe

def test_closed_pipe_exits_quietly():
    # a reader that stops after the header, as `| head -1` does: no
    # traceback, and the documented status instead of the usage error 1
    src = os.path.dirname(os.path.dirname(ljchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # well over a pipe buffer of rows, all below the crossing (no solves)
    argv = [sys.executable, "-m", "ljchain.cli", "delta-sweep", "--a", "0.5:0.9:20000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as p:
        assert p.stdout.readline().startswith(b"A,Delta")
        p.stdout.close()
        err = p.stderr.read()
        code = p.wait(timeout=60)
    assert code == 141
    assert b"Traceback" not in err
    assert err == b""
    help_text = subprocess.run([sys.executable, "-m", "ljchain.cli", "--help"],
                               capture_output=True, env=env, timeout=60).stdout
    assert b"141" in help_text


# ------------------------------------------------ argument checks at parsing

@pytest.mark.parametrize("argv", [
    ["beta-fit", "--points", "0"],
    ["beta-fit", "--points", "5"],
    ["beta-fit", "--points", "-3"],
    ["tau-fit", "--points", "1"],
    ["energy-curve", "--digits", "-1"],
    ["energy-curve", "--digits", "0"],
    ["hardcore-sweep", "--sigma", "0"],
    ["hardcore-sweep", "--sigma", "inf"],
    ["beta-fit", "--window", "1e-8:inf"],
    ["tau-fit", "--window", "1e-12:1e999"],
    ["delta-sweep", "--a", "1:1e400:2"],
    ["phase-diagram", "--a", "6.5:inf:3"],
    ["hardcore-sweep", "--a", "1.1:inf:3"],
    ["energy-curve", "--a", "1:inf:3:log"],
])
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    # rejected before any computation: usage status, nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1] in captured.err


def test_fit_point_minimum_matches_the_library():
    # the parser keeps its own copy so that building it loads no solver
    from ljchain import cli, transition
    assert cli._MIN_FIT_POINTS == transition._MIN_FIT_POINTS


def test_smallest_accepted_digits(capsys):
    code, out, _ = run_cli(capsys, "energy-curve", "--a", "1.0:1.0:1",
                           "--digits", "1")
    assert code == 0
    _, rows, _ = parse_csv(out)
    assert rows[0][0] == "1"


# ------------------------------------------------------- solves per fit point

def test_fits_solve_each_point_once(capsys, monkeypatch):
    from ljchain import hardcore, transition

    calls = []
    solve = transition.solve_delta

    def counted(spec, A):
        calls.append(A)
        return solve(spec, A)

    # the CLI looks solve_delta up in transition when the command runs
    monkeypatch.setattr(transition, "solve_delta", counted)
    code, _, _ = run_cli(capsys, "beta-fit")
    assert code == 0
    assert len(calls) == 20

    hardcore._junction_cached.cache_clear()
    code, _, _ = run_cli(capsys, "tau-fit")
    assert code == 0
    assert hardcore._junction_cached.cache_info().misses == 12

    # more points than the junction cache holds: still one solve each
    hardcore._junction_cached.cache_clear()
    code, out, _ = run_cli(capsys, "tau-fit", "--points", "1100")
    assert code == 0
    assert len(parse_csv(out)[1]) == 1100
    assert hardcore._junction_cached.cache_info().misses == 1100
