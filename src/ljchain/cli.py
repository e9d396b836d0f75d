"""Command line front end.

Every subcommand writes one CSV table (RFC 4180, newline line endings,
header row always present) to stdout or --out, with scalar summaries
appended as '# key=value' trailer lines.  All floating point output is
formatted with --digits significant digits (default 15), so identical
invocations produce byte-identical files.

Exit status: 0 on success, 1 on usage errors, 2 when a computation
fails (sweep rows that fail are also reported per row in the `error`
column and still exit 2), 141 when the reader of stdout closes it
early, as `ljchain energy-curve | head -1` does (the status a process
killed by SIGPIPE reports in a shell).

Each subcommand imports the modules it runs when it runs, and argparse
converts the string defaults of the chosen subcommand only, so a process
loads no more of the package than its subcommand needs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

__all__ = ["main"]

# transition._MIN_FIT_POINTS, repeated so that building the parser
# imports no computation module (a test keeps the two equal)
_MIN_FIT_POINTS = 8
_EXIT_PIPE_CLOSED = 141
_EPILOG = ("exit status: 0 success, 1 usage error, 2 computation failure, "
           f"{_EXIT_PIPE_CLOSED} stdout closed by its reader (e.g. piped into head)")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this package reserves 2 for
    # computation failures, so route usage problems to exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _grid(text: str):
    parts = text.split(":")
    log = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise argparse.ArgumentTypeError(f"bad grid suffix in {text!r}")
        log = True
        parts = parts[:3]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count[:log], got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid ends must be finite, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if not stop >= start:
        raise argparse.ArgumentTypeError("grid stop must be >= start")
    from .transition import _geomspace, _linspace
    if log:
        if not start > 0:
            raise argparse.ArgumentTypeError("log grids need start > 0")
        return _geomspace(start, stop, count)
    return _linspace(start, stop, count)


def _window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"window must be lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not 0.0 < lo < hi < math.inf:
        raise argparse.ArgumentTypeError("window needs 0 < lo < hi < inf")
    return lo, hi


def _number(convert, lo: float, strict: bool = False):
    """Argument type: convert(text), required to be finite and >= lo
    (> lo when strict)."""
    def parse(text: str):
        value = convert(text)
        if not (value > lo if strict else value >= lo) or not value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {lo:g}, got {text!r}")
        return value
    parse.__name__ = convert.__name__   # argparse's "invalid int value: ..."
    return parse


def _potential(text: str):
    from .potential import parse_potential
    try:
        return parse_potential(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _Sink:
    def __init__(self, path: str | None, digits: int):
        self.path = path
        self.digits = digits
        self._fh = None

    def __enter__(self):
        import csv
        self._fh = open(self.path, "w", newline="") if self.path else sys.stdout
        self._writer = csv.writer(self._fh, lineterminator="\n")
        return self

    def __exit__(self, *exc):
        if self.path and self._fh is not None:
            self._fh.close()
        return False

    def fmt(self, v) -> str:
        if isinstance(v, float):
            return f"{v:.{self.digits}g}"
        return str(v)

    def header(self, cols):
        self._writer.writerow(cols)

    def row(self, vals):
        self._writer.writerow([self.fmt(v) for v in vals])

    def note(self, key: str, value):
        self._fh.write(f"# {key}={self.fmt(value)}\n")


def _add_potential(sp, default="mie:n=12,m=6"):
    sp.add_argument("--potential", type=_potential, default=default,
                    metavar="SPEC",
                    help=f"n-m pair potential mie:n=N,m=M (default {default})")


def _add_output(sp):
    sp.add_argument("--digits", type=_number(int, 1), default=15, metavar="D",
                    help="significant digits for floats, >= 1 (default 15)")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write CSV here instead of stdout")


def _A_c(spec) -> float:
    """critical_point(spec).A_c without the checks of E2 and E4 that no
    table prints; every potential the parser builds is n-m."""
    from .transition import _critical_A
    return _critical_A(*spec.mie)


def cmd_energy_curve(args) -> int:
    from .energy import energy_curve
    from .potential import format_potential
    rows = energy_curve(args.potential, args.a)
    with _Sink(args.out, args.digits) as sink:
        sink.header(["A", "E_ground", "E_equidistant_continuation", "phase", "Delta"])
        for r in rows:
            sink.row([r.A, r.E_ground, r.E_equidistant_continuation, r.phase, r.Delta])
        sink.note("potential", format_potential(args.potential))
        sink.note("A_c", _A_c(args.potential))
    return 0


def cmd_phase_diagram(args) -> int:
    from .potential import mie_potential
    _, m = args.potential.mie
    pairs = []
    for n in args.a:
        pairs.append((n, _A_c(mie_potential(n, m))))
    monotone = all(b[1] < a[1] for a, b in zip(pairs, pairs[1:]))
    with _Sink(args.out, args.digits) as sink:
        sink.header(["n", "A_c"])
        for n, ac in pairs:
            sink.row([n, ac])
        sink.note("m", m)
        sink.note("A_c_decreasing_in_n", monotone)
    print(f"phase-diagram: m={m:g}, {len(pairs)} points, "
          f"A_c decreasing in n: {monotone}", file=sys.stderr)
    return 0


def _sweep(args, solve, notes) -> int:
    """One row per spacing from solve(A).  notes(sink) writes the trailer
    lines between the potential and the failure count, after the rows."""
    from .potential import format_potential
    failures = 0
    out_rows = []
    for A in args.a:
        try:
            sol = solve(A)
            out_rows.append([sol.A, sol.Delta, sol.branch, sol.residual, ""])
        except (ValueError, RuntimeError) as exc:
            failures += 1
            out_rows.append([A, math.nan, "", math.nan, str(exc)])
    with _Sink(args.out, args.digits) as sink:
        sink.header(["A", "Delta", "branch", "residual", "error"])
        for r in out_rows:
            sink.row(r)
        sink.note("potential", format_potential(args.potential))
        notes(sink)
        sink.note("failures", failures)
    return 2 if failures else 0


def cmd_delta_sweep(args) -> int:
    from .transition import solve_delta
    return _sweep(args, lambda A: solve_delta(args.potential, A),
                  lambda sink: sink.note("A_c", _A_c(args.potential)))


def cmd_hardcore_sweep(args) -> int:
    from .hardcore import HardCoreConfig, NoJunctionError, constrained_delta, junction
    config = HardCoreConfig(args.potential, args.sigma)

    def notes(sink):
        sink.note("sigma", config.sigma)
        sink.note("A_c", _A_c(args.potential))
        try:
            sink.note("A_star", junction(config).A_star)
        except NoJunctionError:
            sink.note("A_star", "none")

    return _sweep(args, lambda A: constrained_delta(config, A), notes)


def _write_fit(args, fit, header, rows, *notes) -> int:
    """The fitted points as rows; the trailer is the potential, notes, then the fit."""
    from .potential import format_potential
    with _Sink(args.out, args.digits) as sink:
        sink.header(header)
        for r in rows:
            sink.row(r)
        sink.note("potential", format_potential(args.potential))
        for key, value in notes:
            sink.note(key, value)
        for key in ("exponent", "prefactor", "r_squared", "theory_exponent",
                    "theory_prefactor", "prefactor_at_theory_exponent"):
            sink.note(key, getattr(fit, key))
    return 0


def cmd_beta_fit(args) -> int:
    from .transition import fit_beta
    fit = fit_beta(args.potential, args.window, args.points)
    return _write_fit(args, fit, ["A_minus_Ac", "Delta_minus_1", "error"],
                      [[x, y, ""] for x, y in zip(fit.xs, fit.ys)],
                      ("A_c", _A_c(args.potential)))


def cmd_tau_fit(args) -> int:
    from .hardcore import fit_tau
    fit = fit_tau(args.potential, args.window, args.points)
    rows = [[x, jp.A_star, jp.delta_star, ""] for x, jp in zip(fit.xs, fit.junctions)]
    return _write_fit(args, fit, ["sigma_minus_1", "A_star", "delta_star", "error"], rows)


def cmd_validate(args) -> int:
    from .validate import run
    return run(args.quick)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ljchain",
                description="Ground states of one-dimensional chains with "
                            "inverse-power pair interactions",
                epilog=_EPILOG)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("energy-curve", parents=[], help="ground-state energy vs spacing")
    _add_potential(sp)
    sp.add_argument("--a", type=_grid, default="0.9:2.0:111", metavar="GRID",
                    help="grid start:stop:count[:log] of half-spacings (default 0.9:2.0:111)")
    _add_output(sp)
    sp.set_defaults(func=cmd_energy_curve)

    sp = sub.add_parser("phase-diagram", help="crossing location vs repulsive exponent")
    _add_potential(sp)
    sp.add_argument("--a", type=_grid, default="6.5:30:95", metavar="GRID",
                    help="grid of repulsive exponents n (default 6.5:30:95); "
                         "m is taken from --potential")
    _add_output(sp)
    sp.set_defaults(func=cmd_phase_diagram)

    sp = sub.add_parser("delta-sweep", help="optimal gap ratio vs spacing")
    _add_potential(sp)
    sp.add_argument("--a", type=_grid, default="1.0:3.0:41", metavar="GRID",
                    help="grid of half-spacings (default 1.0:3.0:41)")
    _add_output(sp)
    sp.set_defaults(func=cmd_delta_sweep)

    sp = sub.add_parser("beta-fit", help="critical exponent of the gap ratio")
    _add_potential(sp)
    sp.add_argument("--window", type=_window, default=(1e-8, 1e-4), metavar="LO:HI",
                    help="window of A - A_c offsets (default 1e-8:1e-4)")
    sp.add_argument("--points", type=_number(int, _MIN_FIT_POINTS), default=20, metavar="K",
                    help=f"fit points, geometric, >= {_MIN_FIT_POINTS} (default 20)")
    _add_output(sp)
    sp.set_defaults(func=cmd_beta_fit)

    sp = sub.add_parser("hardcore-sweep", help="gap ratio vs spacing with a hard core")
    _add_potential(sp)
    sp.add_argument("--sigma", type=_number(float, 0.0, strict=True), required=True,
                    metavar="S", help="hard-core radius, > 0")
    sp.add_argument("--a", type=_grid, default="1.1:3.0:39", metavar="GRID",
                    help="grid of half-spacings (default 1.1:3.0:39)")
    _add_output(sp)
    sp.set_defaults(func=cmd_hardcore_sweep)

    sp = sub.add_parser("tau-fit", help="divergence of the junction spacing as sigma -> 1")
    _add_potential(sp)
    sp.add_argument("--window", type=_window, default=(1e-12, 1e-9), metavar="LO:HI",
                    help="window of sigma - 1 values (default 1e-12:1e-9)")
    sp.add_argument("--points", type=_number(int, _MIN_FIT_POINTS), default=12, metavar="K",
                    help=f"fit points, geometric, >= {_MIN_FIT_POINTS} (default 12)")
    _add_output(sp)
    sp.set_defaults(func=cmd_tau_fit)

    sp = sub.add_parser("validate", help="self-checks against independent routes")
    sp.add_argument("--quick", action="store_true",
                    help="constants and spot checks only (tens of milliseconds)")
    sp.set_defaults(func=cmd_validate)

    return p


def _failures() -> tuple:
    """What a failed computation raises.  An except clause evaluates this
    only when an exception reaches it; by then any subcommand that can
    raise these has loaded their modules.  The hard-core errors are
    ValueErrors.  The integrator's QuadratureError never gets here:
    only validate integrates, and it reports a check that raises as a
    failed check."""
    from .transition import BracketError
    return ValueError, ArithmeticError, BracketError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # interpreter's own flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_PIPE_CLOSED
    except _failures() as exc:
        print(f"ljchain: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
