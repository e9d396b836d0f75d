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
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time

from .potential import (
    PotentialSpec,
    RieszComponent,
    mie_potential,
    parse_potential,
    format_potential,
)
from .energy import (
    bipartite_energy,
    bipartite_energy_quadrature,
    find_A_min,
    riesz_lattice_sum,
)
from .landau import (
    critical_point,
    landau_closed,
    landau_coefficients_quadrature,
    tricritical_scan,
)
from .oracle import direct_bipartite_sum, richardson_derivative
from .specfun import hurwitz_zeta, riemann_zeta, theta2, theta3
from .transition import (
    BracketError,
    delta_sweep,
    energy_curve,
    fit_beta,
    solve_delta,
    _MIN_FIT_POINTS,
    _geomspace,
    _linspace,
)
from .hardcore import (
    HardCoreConfig,
    InfeasibleError,
    NoJunctionError,
    constrained_delta,
    fit_tau,
    junction,
)
from .quadrature import QuadratureError

__all__ = ["main"]

_REFERENCE_AC_12_6 = 1.10865478515
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
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if not stop >= start:
        raise argparse.ArgumentTypeError("grid stop must be >= start")
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
    if not 0.0 < lo < hi:
        raise argparse.ArgumentTypeError("window needs 0 < lo < hi")
    return lo, hi


def _number(convert, lo: float, strict: bool = False):
    """Argument type: convert(text), required to be >= lo (> lo when strict)."""
    def parse(text: str):
        value = convert(text)
        if not (value > lo if strict else value >= lo):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {lo:g}, got {text!r}")
        return value
    parse.__name__ = convert.__name__   # argparse's "invalid int value: ..."
    return parse


def _potential(text: str) -> PotentialSpec:
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
    sp.add_argument("--potential", type=_potential, default=_potential(default),
                    metavar="SPEC",
                    help=f"pair potential, e.g. mie:n=12,m=6 or "
                         f"riesz:c=1,s=6;c=-2,s=3 (default {default})")


def _add_output(sp):
    sp.add_argument("--digits", type=_number(int, 1), default=15, metavar="D",
                    help="significant digits for floats, >= 1 (default 15)")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write CSV here instead of stdout")


def cmd_energy_curve(args) -> int:
    rows = energy_curve(args.potential, args.a)
    with _Sink(args.out, args.digits) as sink:
        sink.header(["A", "E_ground", "E_equidistant_continuation", "phase", "Delta"])
        for r in rows:
            sink.row([r.A, r.E_ground, r.E_equidistant_continuation, r.phase, r.Delta])
        sink.note("potential", format_potential(args.potential))
        sink.note("A_c", critical_point(args.potential).A_c)
    return 0


def cmd_phase_diagram(args) -> int:
    if args.potential.mie is None:
        raise ValueError("phase-diagram requires an n-m potential (m is held fixed)")
    _, m = args.potential.mie
    pairs = []
    for n in args.a:
        pairs.append((n, critical_point(mie_potential(n, m)).A_c))
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
    return _sweep(args, lambda A: solve_delta(args.potential, A),
                  lambda sink: sink.note("A_c", critical_point(args.potential).A_c))


def cmd_hardcore_sweep(args) -> int:
    sigma = args.sigma if args.sigma is not None else args.potential.sigma
    if sigma is None:
        raise ValueError("hardcore-sweep needs --sigma or a potential with sigma")
    config = HardCoreConfig(args.potential, sigma)

    def notes(sink):
        sink.note("sigma", sigma)
        sink.note("A_c", critical_point(args.potential).A_c)
        try:
            sink.note("A_star", junction(config).A_star)
        except NoJunctionError:
            sink.note("A_star", "none")

    return _sweep(args, lambda A: constrained_delta(config, A), notes)


def _write_fit(args, fit, header, rows, *notes) -> int:
    """The fitted points as rows; the trailer is the potential, notes, then the fit."""
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
    fit = fit_beta(args.potential, args.window, args.points)
    return _write_fit(args, fit, ["A_minus_Ac", "Delta_minus_1", "error"],
                      [[x, y, ""] for x, y in zip(fit.xs, fit.ys)],
                      ("A_c", critical_point(args.potential).A_c))


def cmd_tau_fit(args) -> int:
    fit = fit_tau(args.potential, args.window, args.points)
    rows = [[x, jp.A_star, jp.delta_star, ""] for x, jp in zip(fit.xs, fit.junctions)]
    return _write_fit(args, fit, ["sigma_minus_1", "A_star", "delta_star", "error"], rows)


# --------------------------------------------------------------- validate

def _check_minimum():
    spec = mie_potential(12.0, 6.0)
    A_min, E_min = find_A_min(spec)
    da = abs(A_min - 0.997179263885)
    de = abs(E_min - (-715.0 / 691.0))
    ok = da <= 1e-10 and de <= 1e-10
    return ok, f"A_min={A_min:.12f} (diff {da:.2e}), E_min={E_min:.12f} (diff {de:.2e})"


def _check_crossing():
    tp12 = critical_point(mie_potential(12.0, 6.0))
    tp7 = critical_point(mie_potential(7.0, 6.0))
    d12 = abs(tp12.A_c - _REFERENCE_AC_12_6)
    d7 = abs(tp7.A_c - 1.1427384940215781)
    ok = d12 <= 1e-10 and d7 <= 1e-10 and tp12.sign_change_verified \
        and tp7.sign_change_verified and tp12.E4_at_Ac > 0 and tp7.E4_at_Ac > 0
    return ok, (f"A_c(12,6)={tp12.A_c:.11f} vs {_REFERENCE_AC_12_6:.11f} "
                f"(abs diff {d12:.3e}); A_c(7,6)={tp7.A_c:.13f} (diff {d7:.3e})")


def _check_zeta_identities():
    worst = 0.0
    for s in (2.2, 5.0, 7.3, 13.6, 31.0):
        lhs = hurwitz_zeta(s, 0.5)
        rhs = (2.0 ** s - 1.0) * riemann_zeta(s)
        worst = max(worst, abs(lhs / rhs - 1.0))
        for a in (0.3, 1.0, 2.7):
            r = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
            worst = max(worst, abs(r / a ** -s - 1.0))
    for x in (0.07, 0.9, 3.3, 17.0):
        worst = max(worst, abs((theta2(x) + theta3(x)) / theta3(x / 4.0) - 1.0))
    return worst <= 1e-12, f"worst identity residual {worst:.2e}"


def _check_lattice_sum():
    worst = 0.0
    for s, A, Delta in ((6.0, 1.0, 1.0), (12.0, 1.1, 2.0), (3.0, 0.9, 4.0), (2.5, 2.0, 1.5)):
        closed = riesz_lattice_sum(s, A, Delta)
        direct = direct_bipartite_sum(s, A, Delta, 1e-11)
        worst = max(worst, abs(direct.value / closed - 1.0))
    return worst <= 1e-8, f"worst closed vs direct rel diff {worst:.2e}"


def _check_series_coefficients():
    spec = mie_potential(12.0, 6.0)
    closed = landau_closed(spec, 1.1)
    quad = landau_coefficients_quadrature(spec, 1.1)
    worst = max(abs(quad.E2 / closed.E2 - 1.0), abs(quad.E4 / closed.E4 - 1.0),
                abs(quad.E6 / closed.E6 - 1.0))
    return worst <= 1e-8, f"worst closed vs quadrature rel diff {worst:.2e}"


def _check_solver():
    spec = mie_potential(12.0, 6.0)
    sol = solve_delta(spec, 2.0)
    e0 = bipartite_energy(spec, 2.0, sol.Delta).value
    up = bipartite_energy(spec, 2.0, sol.Delta * 1.01).value
    dn = bipartite_energy(spec, 2.0, sol.Delta / 1.01).value
    ok = sol.residual <= 1e-11 and e0 < up and e0 < dn
    return ok, (f"Delta(2)={sol.Delta:.9f}, residual {sol.residual:.2e}, "
                f"local minimum verified: {e0 < up and e0 < dn}")


def _check_junction():
    spec = mie_potential(12.0, 6.0)
    jp = junction(HardCoreConfig(spec, 1.1))
    rel = abs(jp.Delta_star - (2.0 * jp.A_star / 1.1 - 1.0)) / jp.Delta_star
    ok = rel <= 1e-10 and jp.residual <= 1e-11
    return ok, (f"A_star={jp.A_star:.9f}, Delta_star={jp.Delta_star:.9f}, "
                f"consistency {rel:.2e}, residual {jp.residual:.2e}")


def _check_cross_method_grid():
    worst = 0.0
    for n, m in ((12.0, 6.0), (7.0, 6.0), (6.0, 2.0)):
        for A in _linspace(0.8, 3.0, 5):
            for Delta in _linspace(1.0, 4.0, 5):
                for s in (n, m):
                    closed = riesz_lattice_sum(s, A, Delta)
                    bare = PotentialSpec((RieszComponent(1.0, s),))
                    quad = bipartite_energy_quadrature(bare, A, Delta).value
                    direct = direct_bipartite_sum(s, A, Delta, 1e-11).value
                    worst = max(worst, abs(quad / closed - 1.0),
                                abs(direct / closed - 1.0))
    return worst <= 1e-8, f"worst pairwise rel diff {worst:.2e}"


def _check_stencil_derivatives():
    spec = mie_potential(12.0, 6.0)
    A = 1.1
    quad = landau_coefficients_quadrature(spec, A)

    def energy_of_eps(e: float) -> float:
        return bipartite_energy(spec, A, math.exp(e)).value

    d2, _ = richardson_derivative(energy_of_eps, 0.0, 2, h0=1e-2)
    d4, _ = richardson_derivative(energy_of_eps, 0.0, 4, h0=2e-2)
    d6, _ = richardson_derivative(energy_of_eps, 0.0, 6, h0=8e-2)
    r2 = abs(d2 / 2.0 / quad.E2 - 1.0)
    r4 = abs(d4 / 24.0 / quad.E4 - 1.0)
    r6 = abs(d6 / 720.0 / quad.E6 - 1.0)
    ok = r2 <= 1e-6 and r4 <= 1e-5 and r6 <= 1e-3
    return ok, f"E2 diff {r2:.2e}, E4 diff {r4:.2e}, E6 diff {r6:.2e}"


def _check_beta():
    msgs = []
    ok = True
    for n, m in ((12.0, 6.0), (7.0, 6.0)):
        fit = fit_beta(mie_potential(n, m))
        amp_rel = abs(fit.prefactor / fit.theory_prefactor - 1.0)
        ok = ok and abs(fit.exponent - 0.5) <= 1e-3 and amp_rel <= 1e-2
        msgs.append(f"({n:g},{m:g}): slope {fit.exponent:.5f}, amp rel {amp_rel:.2e}")
    return ok, "; ".join(msgs)


def _check_tau():
    msgs = []
    ok = True
    for n, m in ((12.0, 6.0), (8.0, 6.0), (6.0, 2.0), (6.0, 3.0)):
        fit = fit_tau(mie_potential(n, m))
        slope_err = abs(fit.exponent - fit.theory_exponent)
        amp_rel = abs(fit.prefactor_at_theory_exponent / fit.theory_prefactor - 1.0)
        ok = ok and slope_err <= 5e-3 and amp_rel <= 1e-2
        msgs.append(f"({n:g},{m:g}): slope {fit.exponent:.5f}, amp rel {amp_rel:.2e}")
    return ok, "; ".join(msgs)


def _check_sweep_monotone():
    spec = mie_potential(12.0, 6.0)
    A_c = critical_point(spec).A_c
    grid = _linspace(1.0, 3.0, 41)
    sols = delta_sweep(spec, grid)
    mono = all(b.Delta >= a.Delta for a, b in zip(sols, sols[1:]))
    bound = all(s.Delta < 2.0 * s.A - 1.0 or s.branch == "trivial" for s in sols)
    trivial = all(s.Delta == 1.0 for s in sols if s.A <= A_c)
    ok = mono and bound and trivial
    return ok, f"monotone {mono}, bound {bound}, symmetric below crossing {trivial}"


def _check_quartic_certificate():
    # numpy.arange(1.01, 60.0 + 1e-9, 0.01) by numpy's fill rule,
    # start + i*(second point - start), so the points equal numpy's
    step = (1.01 + 0.01) - 1.01
    xs = [1.01 + i * step for i in range(math.ceil((60.0 + 1e-9 - 1.01) / 0.01))]
    ints = [float(k) for k in range(2, 15)]
    rep = tricritical_scan(xs, ints)
    ok = rep.monotone and rep.all_E4_positive
    return ok, (f"ratio decreasing over [{rep.x_lo:g}, {rep.x_hi:g}] "
                f"({rep.n_x} points): {rep.monotone}; "
                f"min E4 at crossing over {rep.pairs_checked} pairs: {rep.min_E4_at_Ac:.3e}")


def cmd_validate(args) -> int:
    checks = [
        ("equidistant minimum (12,6)", _check_minimum),
        ("crossing location", _check_crossing),
        ("zeta and theta identities", _check_zeta_identities),
        ("lattice sum closed vs direct", _check_lattice_sum),
        ("series coefficients closed vs quadrature", _check_series_coefficients),
        ("gap solver at A=2", _check_solver),
        ("junction self-consistency sigma=1.1", _check_junction),
    ]
    if not args.quick:
        checks += [
            ("cross-method grid", _check_cross_method_grid),
            ("series coefficients vs stencil derivatives", _check_stencil_derivatives),
            ("order-parameter exponent", _check_beta),
            ("junction divergence exponent", _check_tau),
            ("sweep monotonicity", _check_sweep_monotone),
            ("quartic positivity certificate", _check_quartic_certificate),
        ]
    failures = 0
    t0 = time.perf_counter()
    for name, fn in checks:
        t_check = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok  " if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
        # wall time per check on stderr, so stdout stays reproducible
        print(f"validate: {name}: {time.perf_counter() - t_check:.3f}s", file=sys.stderr)
    dt = time.perf_counter() - t0
    print(f"{len(checks)} checks, {failures} failures ({dt:.1f}s)")
    return 2 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ljchain",
                description="Ground states of one-dimensional chains with "
                            "inverse-power pair interactions",
                epilog=_EPILOG)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("energy-curve", parents=[], help="ground-state energy vs spacing")
    _add_potential(sp)
    sp.add_argument("--a", type=_grid, default=_grid("0.9:2.0:111"), metavar="GRID",
                    help="grid start:stop:count[:log] of half-spacings (default 0.9:2.0:111)")
    _add_output(sp)
    sp.set_defaults(func=cmd_energy_curve)

    sp = sub.add_parser("phase-diagram", help="crossing location vs repulsive exponent")
    _add_potential(sp)
    sp.add_argument("--a", type=_grid, default=_grid("6.5:30:95"), metavar="GRID",
                    help="grid of repulsive exponents n (default 6.5:30:95); "
                         "m is taken from --potential")
    _add_output(sp)
    sp.set_defaults(func=cmd_phase_diagram)

    sp = sub.add_parser("delta-sweep", help="optimal gap ratio vs spacing")
    _add_potential(sp)
    sp.add_argument("--a", type=_grid, default=_grid("1.0:3.0:41"), metavar="GRID",
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
    sp.add_argument("--sigma", type=_number(float, 0.0, strict=True), default=None,
                    metavar="S", help="hard-core radius, > 0 (overrides the potential's)")
    sp.add_argument("--a", type=_grid, default=_grid("1.1:3.0:39"), metavar="GRID",
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
                    help="constants and spot checks only (a few seconds)")
    sp.set_defaults(func=cmd_validate)

    return p


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
    except (ValueError, ArithmeticError, QuadratureError, BracketError,
            InfeasibleError, NoJunctionError) as exc:
        print(f"ljchain: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
