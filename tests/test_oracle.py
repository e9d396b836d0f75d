"""Tests for the direct-summation and stencil-derivative oracles."""

import math

import pytest

from ljchain.energy import riesz_lattice_sum, bipartite_energy
from ljchain.oracle import (
    direct_bipartite_sum,
    brute_force_energy,
    richardson_derivative,
    _cutoff,
)
from ljchain.potential import mie_potential
from ljchain.specfun import riemann_zeta


# ---------------------------------------------------------------- direct sums

CASES = [
    (6.0, 1.0, 1.0),
    (12.0, 1.1, 1.5),
    (3.5, 0.9, 2.2),
    (7.0, 2.0, 4.0),
    (2.5, 1.3, 1.02),
    (6.0, 1.10865, 1.001),
]


@pytest.mark.parametrize("s,A,Delta", CASES)
def test_direct_sum_matches_closed_form(s, A, Delta):
    closed = riesz_lattice_sum(s, A, Delta)
    direct = direct_bipartite_sum(s, A, Delta, target_rel=1e-10)
    tol = direct.est_error + 1e-12 * abs(closed)
    assert abs(direct.value - closed) <= tol
    assert direct.method == "brute_force"


@pytest.mark.parametrize("s,A,Delta", CASES)
def test_direct_sum_error_bound_is_honest(s, A, Delta):
    # doubling the cutoff must move the value by less than the reported
    # bound (tiny slack for the roundoff floor itself)
    base = direct_bipartite_sum(s, A, Delta, target_rel=1e-10)
    J = max(64, int((2.0 * riemann_zeta(s) * 1e-10) ** (-1.0 / s)) + 1)
    finer = direct_bipartite_sum(s, A, Delta, J=2 * J)
    assert abs(base.value - finer.value) <= base.est_error * (1.0 + 1e-6) + 1e-300


# A is a power of two, so the cell 2A and the cross offset 2A*delta the
# sum uses are exact, and the reference sees the same chain
MP_S = [1.5, 2.0, 2.5, 3.0, 6.0, 12.0]
MP_CHAINS = [(0.5, 1.0), (1.0, 1.37), (2.0, 3.0), (1.0, 0.4), (0.5, 7.5)]


@pytest.mark.parametrize("s", MP_S)
def test_direct_sum_error_covers_mpmath_miss(s):
    mpmath = pytest.importorskip("mpmath")
    for A, Delta in MP_CHAINS:
        r = direct_bipartite_sum(s, A, Delta, target_rel=1e-11)
        with mpmath.workdps(40):
            d = mpmath.mpf(1.0 / (1.0 + Delta))
            ref = mpmath.mpf(2.0 * A) ** -s * (
                mpmath.zeta(s) + (mpmath.zeta(s, d) + mpmath.zeta(s, 1 - d)) / 2)
            miss = float(abs(mpmath.mpf(r.value) - ref))
        # est_error carries the tail bound and the roundoff floor
        assert miss <= r.est_error, (A, Delta, miss, r.est_error)
        assert r.est_error <= 1e-14 * r.value


def test_direct_sum_cutoff_count():
    # sized from the Euler-Maclaurin remainder bound, s = 2 at 1e-11
    # needs no more than the 64-cell floor (the midpoint integral alone
    # needed 174,346 cells)
    assert _cutoff(2.0, 1e-11) <= 200
    for s in MP_S + [1.01, 40.0, 400.0]:
        assert _cutoff(s, 1e-12) == 64


def test_direct_sum_gap_ratio_symmetry():
    a = direct_bipartite_sum(7.0, 1.2, 3.0)
    b = direct_bipartite_sum(7.0, 1.2, 1.0 / 3.0)
    assert a.value == pytest.approx(b.value, rel=1e-14)


def test_direct_sum_rejects_unreachable_target():
    with pytest.raises(ValueError):
        direct_bipartite_sum(6.0, 1.0, 1.0, target_rel=1e-14)


def test_direct_sum_rejects_non_summable_exponent():
    with pytest.raises(ValueError):
        direct_bipartite_sum(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        direct_bipartite_sum(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        direct_bipartite_sum(1.0, 1.0, 1.0, J=100)


@pytest.mark.parametrize("J", [0, -3, 2.5])
def test_direct_sum_rejects_cutoff_below_one(J):
    with pytest.raises(ValueError, match="J must be at least 1"):
        direct_bipartite_sum(6.0, 1.0, 1.0, J=J)


@pytest.mark.parametrize("A, Delta", [(math.inf, 2.0), (1.0, math.inf), (math.nan, 2.0)])
def test_direct_sum_rejects_non_finite_geometry(A, Delta):
    # A = inf would give EnergyResult(value=nan, est_error=nan)
    with pytest.raises(ValueError, match="must be positive and finite"):
        direct_bipartite_sum(6.0, A, Delta)


def test_brute_force_energy_matches_closed():
    spec = mie_potential(12, 6)
    for A, Delta in [(1.0, 1.0), (1.2, 1.3), (1.5, 2.5)]:
        closed = bipartite_energy(spec, A, Delta)
        direct = brute_force_energy(spec, A, Delta)
        assert direct.value == pytest.approx(closed.value, rel=1e-9)
        assert abs(direct.value - closed.value) <= \
            direct.est_error + closed.est_error + 1e-12 * abs(closed.value)


def test_brute_force_energy_hard_core_block():
    spec = mie_potential(12, 6, sigma=1.5)
    r = brute_force_energy(spec, 1.0, 1.0)   # spacing 1.0 < sigma
    assert math.isinf(r.value) and r.value > 0
    assert r.est_error == 0.0


# ------------------------------------------------------- stencil differentiator

def test_richardson_exact_on_matching_degree():
    # d^k/dx^k of x^k is k! and central stencils get it exactly
    for order in range(1, 7):
        val, err = richardson_derivative(lambda x, p=order: x ** p, 1.3,
                                         order, h0=0.5)
        assert val == pytest.approx(math.factorial(order), rel=1e-9)


def test_richardson_on_cubic():
    def f(x):
        return 3.0 * x ** 3 - 2.0 * x ** 2 + x - 5.0

    val, _ = richardson_derivative(f, 0.7, 1, h0=0.1)
    assert val == pytest.approx(9.0 * 0.49 - 4.0 * 0.7 + 1.0, rel=1e-11)
    val, _ = richardson_derivative(f, 0.7, 2, h0=0.1)
    assert val == pytest.approx(18.0 * 0.7 - 4.0, rel=1e-11)
    val, _ = richardson_derivative(f, 0.7, 3, h0=0.1)
    assert val == pytest.approx(18.0, rel=1e-11)


@pytest.mark.parametrize("order,h0,tol", [
    (1, 1e-2, 1e-11), (2, 1e-2, 1e-9), (3, 5e-2, 1e-8),
    (4, 1e-1, 1e-7), (5, 2e-1, 1e-6), (6, 3e-1, 1e-5),
])
def test_richardson_on_exponential(order, h0, tol):
    x0 = 0.3
    val, err = richardson_derivative(math.exp, x0, order, h0=h0)
    want = math.exp(x0)
    assert val == pytest.approx(want, rel=tol)
    # the reported error must not be wildly optimistic
    assert abs(val - want) <= max(100.0 * err, tol * want)


def test_richardson_error_estimate_tracks_difficulty():
    # derivative of a gentle function should report a much smaller error
    # than the same request on a stiff one
    _, easy = richardson_derivative(math.exp, 0.0, 2, h0=1e-2)
    _, hard = richardson_derivative(lambda x: math.exp(40.0 * x), 0.0, 2,
                                    h0=1e-2)
    assert easy < hard


def test_richardson_rejects_bad_args():
    with pytest.raises(ValueError):
        richardson_derivative(math.exp, 0.0, 0)
    with pytest.raises(ValueError):
        richardson_derivative(math.exp, 0.0, 7)
    with pytest.raises(ValueError):
        richardson_derivative(math.exp, 0.0, 1, h0=0.0)
    with pytest.raises(ValueError):
        richardson_derivative(math.exp, 0.0, 1, levels=1)


def test_richardson_propagates_non_finite():
    with pytest.raises(ValueError):
        richardson_derivative(lambda x: math.nan, 1.0, 1)
    with pytest.raises(ValueError):
        richardson_derivative(lambda x: math.inf, 1.0, 2)
