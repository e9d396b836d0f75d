"""The self-checks of `ljchain validate`.

Each check compares one quantity computed by two independent routes, or
against a reference value, and returns (ok, detail).  Only the validate
subcommand imports this module.
"""

from __future__ import annotations

import math
import sys
import time

from .potential import PotentialSpec, RieszComponent, mie_potential
from .energy import bipartite_energy, find_A_min, riesz_lattice_sum
from .landau import critical_point, landau_closed, tricritical_scan
from .oracle import direct_bipartite_sum, richardson_derivative
from .quadrature import (
    bipartite_energy_quadrature,
    landau_coefficients_quadrature,
    theta_offset,
)
from .specfun import hurwitz_zeta, riemann_zeta
from .transition import delta_sweep, fit_beta, solve_delta, _linspace
from .hardcore import HardCoreConfig, fit_tau, junction

__all__ = ["run"]

_REFERENCE_AC_12_6 = 1.10865478515


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
        worst = max(worst, abs((theta_offset(0.5, x) + theta_offset(0.0, x))
                               / theta_offset(0.0, x / 4.0) - 1.0))
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


def run(quick: bool) -> int:
    """Run the checks (the first seven when quick), one line each on
    stdout and each check's wall time on stderr; 2 when any fails."""
    checks = [
        ("equidistant minimum (12,6)", _check_minimum),
        ("crossing location", _check_crossing),
        ("zeta and theta identities", _check_zeta_identities),
        ("lattice sum closed vs direct", _check_lattice_sum),
        ("series coefficients closed vs quadrature", _check_series_coefficients),
        ("gap solver at A=2", _check_solver),
        ("junction self-consistency sigma=1.1", _check_junction),
    ]
    if not quick:
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
