"""Tests for the even-order expansion coefficients and the transition point.

Frozen reference values below were computed with the direct-summation
oracle and stencil derivatives of the closed-form energy, in a separate
session, before the closed forms were trusted.
"""

import math

import pytest

from ljchain.energy import bipartite_energy, equidistant_energy
from ljchain.landau import (
    landau_component_closed,
    landau_closed,
    E2_slope_closed,
    critical_point,
    critical_point_limit_n_to_m,
    quartic_margin_ratio,
    tricritical_scan,
)
from ljchain.oracle import richardson_derivative
from ljchain.potential import mie_potential
from ljchain import quadrature
from ljchain.quadrature import landau_coefficients_quadrature

# E2 sign-change locations for reference pairs, frozen from an
# independent bisection of the direct-sum energy curvature
AC_12_6 = 1.10865478515
AC_7_6 = 1.1427384940215781


def eps_energy(spec, A):
    # the bipartite energy as a function of the log gap ratio at fixed A
    def f(eps):
        return bipartite_energy(spec, A, math.exp(eps)).value
    return f


# -------------------------------------------------------------- closed values

def test_component_values_at_reference_point():
    # spot values for the bare r^-6 term at A = 1.1, frozen from the
    # moment-integral route
    e2, e4, e6 = landau_component_closed(6.0, 1.1)
    assert e2 == pytest.approx(2.9639480039823, rel=1e-12)
    assert e4 == pytest.approx(3.9513166179922, rel=1e-12)
    assert e6 == pytest.approx(2.6630166553442, rel=1e-12)


def test_mie_closed_values_at_reference_point():
    spec = mie_potential(12, 6)
    co = landau_closed(spec, 1.1)
    assert co.E2 == pytest.approx(0.2854062374618, rel=1e-11)
    assert co.E4 == pytest.approx(18.2450086573539, rel=1e-11)
    assert co.E6 == pytest.approx(47.3748401036004, rel=1e-11)
    assert co.E_eq == equidistant_energy(spec, 1.1).value


# ------------------------------------------- derivative oracle for E2, E4, E6

@pytest.mark.parametrize("n,m", [(12, 6), (7, 6)])
def test_E2_matches_eps_curvature(n, m):
    # 2! E2 = d^2/deps^2 E(A, e^eps) at eps = 0
    spec = mie_potential(n, m)
    for A in (1.05, 1.15):
        want = landau_closed(spec, A).E2
        got, _ = richardson_derivative(eps_energy(spec, A), 0.0, 2, h0=1e-2)
        assert got / 2.0 == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_E4_matches_eps_fourth_derivative():
    spec = mie_potential(12, 6)
    A = 1.1
    want = landau_closed(spec, A).E4
    got, _ = richardson_derivative(eps_energy(spec, A), 0.0, 4, h0=2e-2)
    assert got / 24.0 == pytest.approx(want, rel=1e-5)


def test_E6_matches_eps_sixth_derivative():
    spec = mie_potential(12, 6)
    A = 1.1
    want = landau_closed(spec, A).E6
    got, _ = richardson_derivative(eps_energy(spec, A), 0.0, 6, h0=8e-2)
    assert got / 720.0 == pytest.approx(want, rel=1e-3)


def test_E2_slope_matches_finite_difference():
    spec = mie_potential(12, 6)
    for A in (1.0, AC_12_6, 1.3):
        want = E2_slope_closed(spec, A)
        got, _ = richardson_derivative(
            lambda v: landau_closed(spec, v).E2, A, 1, h0=1e-3)
        assert got == pytest.approx(want, rel=1e-8)


# ----------------------------------------------------------- quadrature route

def test_quadrature_coefficients_match_closed():
    spec = mie_potential(12, 6)
    for A in (1.0, 1.1, 1.4):
        cl = landau_closed(spec, A)
        qd = landau_coefficients_quadrature(spec, A)
        assert qd.E2 == pytest.approx(cl.E2, rel=1e-8)
        assert qd.E4 == pytest.approx(cl.E4, rel=1e-8)
        assert qd.E6 == pytest.approx(cl.E6, rel=1e-8)
        assert qd.E_eq == pytest.approx(cl.E_eq, rel=1e-9)
        assert qd.method == "quadrature"


def test_quadrature_one_theta_pass_per_node(monkeypatch):
    # each evaluation of the g2, g4 and g6 integrands takes theta2 and its
    # derivatives through order 1, 2 and 3 from one pass, for each of the
    # two components; the equidistant energy's integrands take none
    orders = []
    per_integral = []
    theta = quadrature.theta2_derivatives
    integrate = quadrature.integrate_log_axis

    def counting_theta(order, x):
        orders.append(order)
        return theta(order, x)

    def counting_integrate(g, center, rel_tol):
        passes = set()
        per_integral.append(passes)

        def counted(u):
            before = len(orders)
            value = g(u)
            passes.add(tuple(orders[before:]))
            return value
        return integrate(counted, center, rel_tol)

    monkeypatch.setattr(quadrature, "theta2_derivatives", counting_theta)
    monkeypatch.setattr(quadrature, "integrate_log_axis", counting_integrate)
    landau_coefficients_quadrature(mie_potential(12, 6), 1.1)
    assert per_integral == [{(1,)}, {(2,)}, {(3,)}] * 2 + [{()}] * 2


def test_quadrature_component_route_other_exponents():
    for s in (2.5, 6.0, 12.0):
        cl = landau_component_closed(s, 1.2)
        qd = landau_coefficients_quadrature(
            mie_potential(s + 1.0, s), 1.2)
        # cross-check through a combination: reuse the closed component
        # values to predict the spec total
        c_hi, c_lo = s / 1.0, -(s + 1.0) / 1.0
        hi = landau_component_closed(s + 1.0, 1.2)
        want = tuple(c_hi * h + c_lo * l for h, l in zip(hi, cl))
        assert qd.E2 == pytest.approx(want[0], rel=1e-8)
        assert qd.E4 == pytest.approx(want[1], rel=1e-8)
        assert qd.E6 == pytest.approx(want[2], rel=1e-8)


# ------------------------------------------------------------- critical point

def test_critical_point_standard_pair():
    tp = critical_point(mie_potential(12, 6))
    assert tp.A_c == pytest.approx(AC_12_6, abs=1e-10)
    assert tp.sign_change_verified
    assert tp.E4_at_Ac > 0.0
    assert tp.bracket[0] < tp.A_c < tp.bracket[1]


def test_critical_point_neighbor_pair():
    tp = critical_point(mie_potential(7, 6))
    assert tp.A_c == pytest.approx(AC_7_6, abs=1e-10)
    assert tp.sign_change_verified
    assert tp.E4_at_Ac > 0.0


def test_critical_point_is_E2_root():
    # bisect the closed-form E2 independently and compare
    spec = mie_potential(12, 6)
    lo, hi = 0.9, 1.4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if landau_closed(spec, mid).E2 > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    assert critical_point(spec).A_c == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_E2_sign_pattern_around_crossing():
    spec = mie_potential(12, 6)
    A_c = critical_point(spec).A_c
    assert landau_closed(spec, A_c * 0.95).E2 > 0.0
    assert landau_closed(spec, A_c * 1.05).E2 < 0.0
    # E2 falls through zero: slope negative in a window around A_c
    for A in (A_c - 0.05, A_c, A_c + 0.05):
        assert E2_slope_closed(spec, A) < 0.0


def test_critical_point_needs_mie_tag():
    from ljchain.potential import PotentialSpec
    spec = mie_potential(12, 6)
    with pytest.raises(ValueError):
        critical_point(PotentialSpec(spec.components))


def test_critical_point_large_n_limit():
    # hard-sphere-like repulsion: crossing tends to 1 regardless of m
    tp = critical_point(mie_potential(200, 6))
    assert 0.98 < tp.A_c < 1.02


@pytest.mark.parametrize("m", [2.0, 6.0, 12.0])
def test_critical_point_n_to_m_limit(m):
    lim = critical_point_limit_n_to_m(m)
    near = critical_point(mie_potential(m + 1e-6, m)).A_c
    assert lim == pytest.approx(near, rel=1e-5)


def test_truncation_error_scaling_of_quartic_model():
    # E(eps) minus its quartic model should shrink like eps^6: slope of
    # the residual on a log-log grid close to 6
    spec = mie_potential(12, 6)
    A = 1.2
    co = landau_closed(spec, A)
    f = eps_energy(spec, A)
    # stay above the cancellation floor of f (E_eq ~ 0.1 against a
    # residual ~ eps^6) and below the eps^8 contamination
    eps_grid = [1e-2, 2e-2, 4e-2, 8e-2]
    resid = [abs(f(e) - (co.E_eq + co.E2 * e * e + co.E4 * e ** 4))
             for e in eps_grid]
    slope = (math.log(resid[-1]) - math.log(resid[0])) \
        / (math.log(eps_grid[-1]) - math.log(eps_grid[0]))
    assert slope == pytest.approx(6.0, abs=0.1)
    # and the sixth-order model should track the residual amplitude
    assert resid[0] == pytest.approx(abs(co.E6) * eps_grid[0] ** 6, rel=0.02)


# ------------------------------------------------------- tricritical excursion

def test_quartic_margin_ratio_decreasing_on_fine_grid():
    xs = [1.01 + 0.01 * k for k in range(int((60.0 - 1.01) / 0.01) + 1)]
    vals = [quartic_margin_ratio(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_quartic_margin_ratio_odd_sum_form():
    # the form the monotonicity proof uses, with an independent zeta:
    # lam(x+2) / (4 (x+2)(x+3) lam(x+4)), lam(s) = (1 - 2^-s) zeta(s)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in (1.01, 2.0, 6.0, 13.5, 59.0):
            lam2 = (1 - mpmath.mpf(2) ** -(x + 2)) * mpmath.zeta(x + 2)
            lam4 = (1 - mpmath.mpf(2) ** -(x + 4)) * mpmath.zeta(x + 4)
            want = float(lam2 / (4 * (x + 2) * (x + 3) * lam4))
            assert quartic_margin_ratio(x) == pytest.approx(want, rel=1e-14)


def test_quartic_margin_ratio_domain():
    with pytest.raises(ValueError):
        quartic_margin_ratio(1.0)


def test_E4_positive_at_crossing_for_integer_pairs():
    for m in range(2, 14):
        for n in range(m + 1, 15):
            tp = critical_point(mie_potential(float(n), float(m)))
            assert tp.E4_at_Ac > 0.0, (n, m)


def test_tricritical_scan_report():
    rep = tricritical_scan([2.0, 3.0, 6.0], [6.0, 7.0, 12.0])
    assert rep.monotone
    assert rep.max_forward_diff < 0.0
    assert rep.all_E4_positive
    assert rep.pairs_checked == 8   # all (n, m) combos with n > m
    assert rep.min_E4_at_Ac > 0.0
    assert rep.x_lo == 2.0 and rep.x_hi == 12.0


@pytest.mark.parametrize("A", [1.0, 1.1, 1.4])
def test_quadrature_error_estimate_covers_closed_forms(A):
    spec = mie_potential(12, 6)
    quad = landau_coefficients_quadrature(spec, A)
    closed = landau_closed(spec, A)
    miss = max(abs(quad.E2 - closed.E2), abs(quad.E4 - closed.E4),
               abs(quad.E6 - closed.E6))
    assert 0.0 < quad.est_error
    assert miss <= quad.est_error
    assert closed.est_error == 0.0
