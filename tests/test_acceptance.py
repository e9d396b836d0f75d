"""Acceptance gate: the headline numbers this package must reproduce.

Each test prints one PASS/FAIL line (run pytest -s to see them all) and
covers one numbered criterion.  Tolerances are pinned here on purpose;
loosening them is a contract change, not a fix.
"""

import math
import time

import numpy as np
import pytest

from ljchain.energy import (
    bipartite_energy,
    find_A_min,
)
from ljchain.hardcore import fit_tau
from ljchain.landau import (
    critical_point,
    critical_point_limit_n_to_m,
    quartic_margin_ratio,
)
from ljchain.oracle import brute_force_energy, richardson_derivative
from ljchain.potential import mie_potential
from ljchain.quadrature import (
    bipartite_energy_quadrature,
    landau_coefficients_quadrature,
    theta_offset,
)
from ljchain.specfun import hurwitz_zeta, riemann_zeta
from ljchain.transition import fit_beta, solve_delta


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_equidistant_minimum():
    spec = mie_potential(12, 6)
    t0 = time.perf_counter()
    A_min, E_min = find_A_min(spec)
    dt = time.perf_counter() - t0
    da = abs(A_min - 0.997179263885)
    de = abs(E_min - (-715.0 / 691.0))
    ok = da <= 1e-10 and de <= 1e-10 and dt < 1e-3
    report(1, ok, f"A_min={A_min:.12f} (|d|={da:.1e}), "
                  f"E_min={E_min:.12f} (|d|={de:.1e}), {dt * 1e3:.2f} ms")
    assert da <= 1e-10
    assert de <= 1e-10
    assert dt < 1e-3


def test_criterion_02_crossing_locations():
    t0 = time.perf_counter()
    tp12 = critical_point(mie_potential(12, 6))
    tp7 = critical_point(mie_potential(7, 6))
    dt = time.perf_counter() - t0
    d12 = abs(tp12.A_c - 1.10865478515)
    d7 = abs(tp7.A_c - 1.1427384940215781)
    ok = (d12 <= 1e-10 and d7 <= 1e-10
          and tp12.sign_change_verified and tp7.sign_change_verified
          and tp12.E4_at_Ac > 0.0 and tp7.E4_at_Ac > 0.0 and dt < 1e-2)
    report(2, ok, f"A_c(12,6)={tp12.A_c:.12f} (|d|={d12:.1e}), "
                  f"A_c(7,6)={tp7.A_c:.13f} (|d|={d7:.1e}), "
                  f"sign changes verified, E4>0, {dt * 1e3:.2f} ms")
    assert d12 <= 1e-10 and d7 <= 1e-10
    assert tp12.sign_change_verified and tp7.sign_change_verified
    assert tp12.E4_at_Ac > 0.0 and tp7.E4_at_Ac > 0.0
    assert dt < 1e-2


def test_criterion_03_limits():
    tp = critical_point(mie_potential(200, 6))
    A_min_200, _ = find_A_min(mie_potential(200, 6))
    ok = 0.98 < tp.A_c < 1.02 and 0.99 < A_min_200 < 1.01
    worst = 0.0
    for m in (2.0, 6.0, 12.0):
        lim = critical_point_limit_n_to_m(m)
        near = critical_point(mie_potential(m + 1e-6, m)).A_c
        worst = max(worst, abs(lim / near - 1.0))
    ok = ok and worst <= 1e-5
    report(3, ok, f"A_c(200,6)={tp.A_c:.6f}, A_min(200,6)={A_min_200:.6f}, "
                  f"worst n->m mismatch {worst:.1e}")
    assert 0.98 < tp.A_c < 1.02
    assert 0.99 < A_min_200 < 1.01
    assert worst <= 1e-5


def test_criterion_04_order_parameter_exponent():
    t0 = time.perf_counter()
    fits = {nm: fit_beta(mie_potential(*nm)) for nm in [(12, 6), (7, 6)]}
    dt = time.perf_counter() - t0
    ok = all(abs(f.exponent - 0.5) <= 1e-3 for f in fits.values()) and dt < 1.0
    report(4, ok, "beta = " + ", ".join(
        f"{f.exponent:.6f} {nm}" for nm, f in fits.items())
        + f", window [1e-8, 1e-4], {dt:.2f} s")
    for f in fits.values():
        assert abs(f.exponent - 0.5) <= 1e-3
    assert dt < 1.0


def test_criterion_05_landau_amplitude():
    fit = fit_beta(mie_potential(12, 6))
    rel = abs(fit.prefactor_at_theory_exponent / fit.theory_prefactor - 1.0)
    ok = rel <= 1e-2
    report(5, ok, f"fit amplitude {fit.prefactor_at_theory_exponent:.6f} vs "
                  f"sqrt(-E2'/(2 E4)) = {fit.theory_prefactor:.6f} "
                  f"(rel {rel:.1e})")
    assert rel <= 1e-2


def test_criterion_06_large_A_asymptote():
    sol = solve_delta(mie_potential(12, 6), 50.0)
    d = abs(sol.Delta - 99.0)
    ok = d <= 0.01
    report(6, ok, f"Delta(A=50) = {sol.Delta:.12f}, |Delta - 99| = {d:.1e}")
    assert d <= 0.01


def test_criterion_07_hardcore_exponent():
    published = {(12, 6): 1.112290, (8, 6): 1.276022, (6, 2): 1.128787}
    t0 = time.perf_counter()
    fits = {nm: fit_tau(mie_potential(*nm))
            for nm in [(12, 6), (8, 6), (6, 2), (6, 3)]}
    dt = time.perf_counter() - t0
    details = []
    ok = dt < 5.0
    for nm, fit in fits.items():
        m = nm[1]
        ok = ok and abs(fit.exponent - (-1.0 / (m + 2.0))) <= 5e-3
        line = f"{nm}: slope {fit.exponent:.6f}"
        if nm in published:
            # published amplitudes quote the full period 2 A_star
            amp = 2.0 * fit.prefactor_at_theory_exponent
            rel = abs(amp / published[nm] - 1.0)
            ok = ok and rel <= 1e-2
            line += f", 2C {amp:.6f} vs {published[nm]:.6f} (rel {rel:.1e})"
        details.append(line)
    report(7, ok, "; ".join(details) + f"; {dt:.2f} s")
    for nm, fit in fits.items():
        m = nm[1]
        assert abs(fit.exponent - (-1.0 / (m + 2.0))) <= 5e-3, nm
        if nm in published:
            amp = 2.0 * fit.prefactor_at_theory_exponent
            assert abs(amp / published[nm] - 1.0) <= 1e-2, nm
    assert dt < 5.0


def test_criterion_08_no_tricritical_point():
    xs = np.arange(1.01, 60.0 + 1e-9, 0.01)
    vals = [quartic_margin_ratio(float(x)) for x in xs]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    monotone = all(d < 0.0 for d in diffs)
    min_e4 = math.inf
    for m in range(2, 14):
        for n in range(m + 1, 15):
            tp = critical_point(mie_potential(float(n), float(m)))
            min_e4 = min(min_e4, tp.E4_at_Ac)
    ok = monotone and min_e4 > 0.0
    report(8, ok, f"margin ratio strictly decreasing on [1.01, 60] "
                  f"({len(xs)} nodes, max fwd diff {max(diffs):.2e}); "
                  f"min E4(A_c) over integer pairs = {min_e4:.4f}")
    assert monotone
    assert min_e4 > 0.0


def test_criterion_09_cross_method_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for nm in [(12, 6), (7, 6), (6, 2)]:
        spec = mie_potential(*nm)
        for A in np.linspace(0.8, 3.0, 5):
            for Delta in np.linspace(1.0, 4.0, 5):
                A, Delta = float(A), float(Delta)
                c = bipartite_energy(spec, A, Delta).value
                q = bipartite_energy_quadrature(spec, A, Delta).value
                b = brute_force_energy(spec, A, Delta).value
                scale = max(abs(c), abs(q), abs(b))
                worst = max(worst, abs(c - q) / scale, abs(c - b) / scale)
    spec = mie_potential(12, 6)
    A = 1.1
    qd = landau_coefficients_quadrature(spec, A)

    def energy_of_eps(eps):
        return bipartite_energy(spec, A, math.exp(eps)).value

    d2, _ = richardson_derivative(energy_of_eps, 0.0, 2, h0=1e-2)
    d4, _ = richardson_derivative(energy_of_eps, 0.0, 4, h0=2e-2)
    d6, _ = richardson_derivative(energy_of_eps, 0.0, 6, h0=8e-2)
    r2 = abs(qd.E2 / (d2 / 2.0) - 1.0)
    r4 = abs(qd.E4 / (d4 / 24.0) - 1.0)
    r6 = abs(qd.E6 / (d6 / 720.0) - 1.0)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and r2 <= 1e-6 and r4 <= 1e-5 and r6 <= 1e-3 \
        and dt < 60.0
    report(9, ok, f"worst energy route disagreement {worst:.1e} over 75 "
                  f"grid points; E2/E4/E6 vs stencils {r2:.1e}/{r4:.1e}/"
                  f"{r6:.1e}; {dt:.1f} s")
    assert worst <= 1e-8
    assert r2 <= 1e-6 and r4 <= 1e-5 and r6 <= 1e-3
    assert dt < 60.0


def test_criterion_10_randomized_identities():
    rng = np.random.default_rng(20260822)
    cases = 0
    worst = 0.0
    for _ in range(400):
        s = float(rng.uniform(1.05, 35.0))
        a = float(rng.uniform(0.05, 30.0))
        r = (hurwitz_zeta(s, a + 1.0) + a ** -s) / hurwitz_zeta(s, a) - 1.0
        worst = max(worst, abs(r))
        cases += 1
    for _ in range(400):
        s = float(rng.uniform(1.05, 35.0))
        r1 = hurwitz_zeta(s, 1.0) / riemann_zeta(s) - 1.0
        r2 = hurwitz_zeta(s, 0.5) / ((2.0 ** s - 1.0) * riemann_zeta(s)) - 1.0
        worst = max(worst, abs(r1), abs(r2))
        cases += 2
    for _ in range(400):
        x = float(rng.uniform(1e-3, 50.0))
        r = (theta_offset(0.5, x) + theta_offset(0.0, x)) / theta_offset(0.0, x / 4.0) - 1.0
        worst = max(worst, abs(r))
        cases += 1
    ok = worst <= 1e-12 and cases >= 1000
    report(10, ok, f"{cases} randomized identity cases, worst rel residual "
                   f"{worst:.1e}")
    assert cases >= 1000
    assert worst <= 1e-12
