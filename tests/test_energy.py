"""Tests for chain energies: closed forms, quadrature route, minima."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ljchain.energy import (
    BipartiteChain,
    riesz_lattice_sum,
    equidistant_energy,
    bipartite_energy,
    find_A_min,
)
from ljchain.oracle import direct_bipartite_sum
from ljchain.potential import mie_potential
from ljchain.quadrature import bipartite_energy_quadrature
from ljchain.specfun import riemann_zeta


# ------------------------------------------------------------------- geometry

def test_chain_geometry():
    ch = BipartiteChain(1.5, 3.0)
    assert ch.a == pytest.approx(2.0 * 1.5 * 3.0 / 4.0)
    assert ch.b == pytest.approx(2.0 * 1.5 / 4.0)
    assert ch.a + ch.b == pytest.approx(2.0 * ch.A, rel=1e-15)
    assert ch.a / ch.b == pytest.approx(ch.Delta, rel=1e-14)
    assert ch.delta == pytest.approx(0.25)
    assert ch.eps == pytest.approx(math.log(3.0))
    assert ch.min_gap == ch.b


def test_chain_equidistant_special_case():
    ch = BipartiteChain(1.2, 1.0)
    assert ch.a == ch.b == pytest.approx(1.2)
    assert ch.eps == 0.0


def test_chain_validation():
    with pytest.raises(ValueError):
        BipartiteChain(0.0, 1.0)
    with pytest.raises(ValueError):
        BipartiteChain(1.0, -2.0)


# ----------------------------------------------------------------- lattice sum

def test_lattice_sum_collapses_at_unit_ratio():
    # Delta = 1 must reduce to the equidistant zeta sum
    for s in (2.5, 6.0, 12.0):
        for A in (0.8, 1.0, 1.7):
            want = riemann_zeta(s) * A ** -s
            assert riesz_lattice_sum(s, A, 1.0) == pytest.approx(want, rel=1e-13)


def test_lattice_sum_gap_exchange_symmetry_dyadic():
    # Delta and 1/Delta describe the same chain; for Delta whose
    # reciprocal is exact in binary the values must match to the bit
    for s in (6.0, 12.0):
        for Delta in (2.0, 4.0, 0.5, 0.25):
            assert riesz_lattice_sum(s, 1.1, Delta) == \
                riesz_lattice_sum(s, 1.1, 1.0 / Delta)


@settings(max_examples=150, deadline=None)
@given(st.floats(1.5, 14.0), st.floats(0.7, 2.5), st.floats(0.05, 20.0))
def test_lattice_sum_gap_exchange_symmetry(s, A, Delta):
    lhs = riesz_lattice_sum(s, A, Delta)
    rhs = riesz_lattice_sum(s, A, 1.0 / Delta)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_lattice_sum_against_direct_summation():
    for s, A, Delta in [(6.0, 1.0, 1.0), (12.0, 1.1, 1.7), (2.5, 0.9, 3.0)]:
        closed = riesz_lattice_sum(s, A, Delta)
        direct = direct_bipartite_sum(s, A, Delta, target_rel=1e-11)
        assert closed == pytest.approx(direct.value, rel=1e-10)


def test_lattice_sum_monotone_in_dimerization():
    # for fixed density the repulsive r^-s sum grows as the chain dimerizes
    s, A = 6.0, 1.2
    vals = [riesz_lattice_sum(s, A, d) for d in (1.0, 1.5, 2.0, 3.0, 5.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_lattice_sum_validation():
    with pytest.raises(ValueError):
        riesz_lattice_sum(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        riesz_lattice_sum(6.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        riesz_lattice_sum(6.0, 1.0, 0.0)


# -------------------------------------------------------------- chain energies

def test_equidistant_energy_values():
    spec = mie_potential(12, 6)
    r = equidistant_energy(spec, 1.0)
    want = riemann_zeta(12.0) - 2.0 * riemann_zeta(6.0)
    assert r.value == pytest.approx(want, rel=1e-14)
    assert r.method == "closed_form"
    assert r.est_error > 0.0


def test_bipartite_energy_matches_equidistant_at_unit_ratio():
    spec = mie_potential(12, 6)
    for A in (0.9, 1.1, 1.5, 2.0):
        eq = equidistant_energy(spec, A)
        bp = bipartite_energy(spec, A, 1.0)
        assert bp.value == pytest.approx(eq.value, rel=1e-13)


def test_energy_to_zero_from_below_at_large_A():
    # attraction wins at long range: E < 0 and E -> 0 as A grows
    spec = mie_potential(12, 6)
    vals = [equidistant_energy(spec, A).value for A in (2.0, 4.0, 8.0, 16.0)]
    assert all(v < 0.0 for v in vals)
    assert all(abs(x) > abs(y) for x, y in zip(vals, vals[1:]))


def test_energy_decreasing_then_increasing():
    spec = mie_potential(12, 6)
    A_min, _ = find_A_min(spec)
    grid = np.linspace(0.9, 1.2, 61)
    vals = [equidistant_energy(spec, a).value for a in grid]
    k = int(np.argmin(vals))
    assert grid[k] == pytest.approx(A_min, abs=0.01)
    assert all(x > y for x, y in zip(vals[:k], vals[1:k + 1]))
    assert all(x < y for x, y in zip(vals[k:], vals[k + 1:]))


# ------------------------------------------------------------- energy minimum

def test_minimum_standard_lennard_jones():
    spec = mie_potential(12, 6)
    A_min, E_min = find_A_min(spec)
    want_A = (riemann_zeta(12.0) / riemann_zeta(6.0)) ** (1.0 / 6.0)
    assert A_min == pytest.approx(want_A, rel=1e-15)
    # the minimum energy is exactly the rational -715/691
    assert E_min == pytest.approx(float(Fraction(-715, 691)), abs=1e-13)


def test_minimum_is_stationary_point():
    spec = mie_potential(12, 6)
    A_min, E_min = find_A_min(spec)
    h = 1e-6     # small enough that the h^2 E''' term stays below 1e-8
    up = equidistant_energy(spec, A_min + h).value
    dn = equidistant_energy(spec, A_min - h).value
    assert abs(up - dn) / (2.0 * h) < 1e-8
    assert up > E_min and dn > E_min


# ------------------------------------------------------------ quadrature route

QPOINTS = [(1.0, 1.0), (1.1, 1.5), (0.9, 3.0), (1.6, 1.05), (2.0, 8.0)]


@pytest.mark.parametrize("A,Delta", QPOINTS)
def test_bipartite_quadrature_matches_closed(A, Delta):
    spec = mie_potential(12, 6)
    closed = bipartite_energy(spec, A, Delta)
    quad = bipartite_energy_quadrature(spec, A, Delta)
    assert quad.value == pytest.approx(closed.value, rel=1e-9)
    assert quad.method == "quadrature"
    assert abs(quad.value - closed.value) <= \
        100.0 * (quad.est_error + closed.est_error)


def test_bipartite_quadrature_other_pairs():
    for n, m in [(7, 6), (6, 2)]:
        spec = mie_potential(n, m)
        closed = bipartite_energy(spec, 1.3, 2.0)
        quad = bipartite_energy_quadrature(spec, 1.3, 2.0)
        assert quad.value == pytest.approx(closed.value, rel=1e-9)


def test_equidistant_quadrature_matches_closed():
    spec = mie_potential(7, 6)
    for A in (1.0, 1.3):
        closed = equidistant_energy(spec, A)
        quad = bipartite_energy_quadrature(spec, A, 1.0)
        assert quad.value == pytest.approx(closed.value, rel=1e-9)


def test_quadrature_rejects_non_finite_geometry():
    # Delta = inf would fail only after 500 splits of the integrator
    spec = mie_potential(12, 6)
    for A, Delta in [(1.0, math.inf), (math.inf, 2.0)]:
        with pytest.raises(ValueError, match="must be positive and finite"):
            bipartite_energy_quadrature(spec, A, Delta)


# --------------------------------------------------------------- random audit

@settings(max_examples=60, deadline=None)
@given(st.floats(0.85, 2.0), st.floats(1.0, 6.0))
def test_energy_random_cross_check(A, Delta):
    # the two components can nearly cancel, so budget the tolerance on
    # their magnitudes rather than on the (possibly tiny) total
    spec = mie_potential(12, 6)
    closed = bipartite_energy(spec, A, Delta).value
    rep = direct_bipartite_sum(12.0, A, Delta).value
    att = direct_bipartite_sum(6.0, A, Delta).value
    budget = 1e-9 * (abs(rep) + 2.0 * abs(att))
    assert abs(closed - (rep - 2.0 * att)) <= budget


# ------------------------------------------------- zeta-table lattice sum
# The Euler-Maclaurin form riesz_lattice_sum had before the zeta tables,
# kept verbatim as the reference.

def _reference_riesz_lattice_sum(s, A, Delta):
    from ljchain.specfun import hurwitz_zeta

    d = Delta if Delta >= 1.0 else 1.0 / Delta
    q = 1.0 + d
    return (2.0 * A) ** -s * (
        riemann_zeta(s) + 0.5 * (hurwitz_zeta(s, d / q) + hurwitz_zeta(s, 1.0 / q)))


@pytest.mark.parametrize("s", [4.0, 7.0, 7.5, 8.0, 9.0, 12.0, 13.0, 99.0, 100.0, 101.0])
def test_lattice_sum_matches_euler_maclaurin_reference(s):
    for A in np.geomspace(0.6, 600.0, 9):
        for Delta in np.geomspace(1.0, 1e3, 13):
            want = _reference_riesz_lattice_sum(s, float(A), float(Delta))
            got = riesz_lattice_sum(s, float(A), float(Delta))
            assert got == pytest.approx(want, rel=1e-13)


def test_close_pair_energy_curve_at_large_spacing():
    # (100, 99) dimerizes to a short gap b ~ 1 at large A, where (2A)^-s
    # underflows and delta^-s overflows; the energy comes from b^-s
    mpmath = pytest.importorskip("mpmath")
    from ljchain.energy import energy_curve

    spec = mie_potential(100.0, 99.0)
    for row in energy_curve(spec, [700.0, 1e3, 1e4]):
        assert row.phase == "bipartite"
        assert math.isfinite(row.E_ground)
        with mpmath.workdps(40):
            A = mpmath.mpf(row.A)
            D = mpmath.mpf(row.Delta)
            want = 0
            mag = 0
            for c in spec.components:
                s = mpmath.mpf(c.exponent)
                lat = (2 * A) ** -s * (mpmath.zeta(s) + (mpmath.zeta(s, 1 / (1 + D))
                                                        + mpmath.zeta(s, D / (1 + D))) / 2)
                want += c.coefficient * lat
                mag += abs(c.coefficient * lat)
        assert abs(row.E_ground - float(want)) <= 1e-13 * float(mag)
