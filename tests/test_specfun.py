"""Checks for the zeta / theta special-function layer.

Reference values come from slow direct summation with Euler-Maclaurin
tail corrections, computed here in the test, so the implementation is
never compared against itself.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ljchain import quadrature, specfun
from ljchain.quadrature import theta2_derivatives, theta3_minus_one, theta_offset
from ljchain.specfun import (
    SeriesError,
    hurwitz_zeta,
    riemann_zeta,
    zeta_log_derivative,
    half_point_odd_head,
    half_point_log_ratio,
    small_gap_log_ratio,
    hurwitz_pair_sum,
)
from ljchain.oracle import richardson_derivative
from references import reference_half_point_odd_series, reference_small_gap_odd_series


def zeta_reference(s, a=1.0, cut=3000):
    # direct partial sum plus an Euler-Maclaurin tail through B_6
    acc = 0.0
    for k in range(cut - 1, -1, -1):
        acc += (a + k) ** (-s)
    x = a + cut
    tail = x ** (1.0 - s) / (s - 1.0)
    tail += 0.5 * x ** (-s)
    tail += s / 12.0 * x ** (-s - 1.0)
    tail -= s * (s + 1.0) * (s + 2.0) / 720.0 * x ** (-s - 3.0)
    return acc + tail


def theta3_reference(x):
    acc = 0.0
    j = 1
    while True:
        t = math.exp(-j * j * x)
        acc += t
        if t < 1e-20 * (1.0 + acc):
            break
        j += 1
    return 1.0 + 2.0 * acc


def theta2_reference(x):
    acc = 0.0
    j = 0
    while True:
        h = j + 0.5
        t = math.exp(-h * h * x)
        acc += t
        if t < 1e-20 * acc and j > 2:
            break
        j += 1
    return 2.0 * acc


# ---------------------------------------------------------------- zeta values

@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.5, 7.0, 8.0, 12.0, 14.0, 30.0])
def test_riemann_zeta_against_direct_sum(s):
    want = zeta_reference(s)
    got = riemann_zeta(s)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("s,a", [
    (1.5, 0.25), (2.0, 0.5), (3.0, 0.1), (7.0, 1.75),
    (8.0, 0.03), (13.0, 2.5), (4.0, 10.0),
])
def test_hurwitz_zeta_against_direct_sum(s, a):
    want = zeta_reference(s, a)
    got = hurwitz_zeta(s, a)
    assert got == pytest.approx(want, rel=1e-13)


def test_zeta_known_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
    assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-14)
    assert riemann_zeta(6.0) == pytest.approx(math.pi ** 6 / 945.0, rel=1e-14)


def test_hurwitz_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.5, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, -1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(1.05, 30.0), st.floats(0.05, 50.0))
def test_hurwitz_recurrence(s, a):
    # zeta(s, a) = zeta(s, a+1) + a^(-s)
    lhs = hurwitz_zeta(s, a)
    rhs = hurwitz_zeta(s, a + 1.0) + a ** (-s)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.05, 40.0))
def test_hurwitz_at_one_matches_riemann(s):
    assert hurwitz_zeta(s, 1.0) == pytest.approx(riemann_zeta(s), rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.05, 40.0))
def test_hurwitz_at_half(s):
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    lhs = hurwitz_zeta(s, 0.5)
    rhs = (2.0 ** s - 1.0) * riemann_zeta(s)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.2, 20.0), st.floats(0.1, 5.0), st.floats(0.01, 2.0))
def test_hurwitz_decreasing_in_offset(s, a, da):
    assert hurwitz_zeta(s, a) > hurwitz_zeta(s, a + da)


def test_zeta_log_derivative_vs_finite_difference():
    for s in (2.0, 6.0, 8.0, 12.0, 14.0):
        want, _ = richardson_derivative(
            lambda v: math.log(riemann_zeta(v)), s, 1, h0=1e-2)
        got = zeta_log_derivative(s)
        assert got == pytest.approx(want, rel=1e-9)


def test_zeta_log_derivative_sign():
    # zeta is decreasing on (1, inf), so the log-derivative is negative
    for s in (1.5, 3.0, 6.0, 20.0):
        assert zeta_log_derivative(s) < 0.0


# --------------------------------------------------------------- theta values

THETA_GRID = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.0, 3.14159, 3.1416, 4.0,
              10.0, 40.0]


@pytest.mark.parametrize("x", THETA_GRID)
def test_theta3_value(x):
    want = theta3_reference(x)
    assert theta_offset(0.0, x) == pytest.approx(want, rel=1e-14)
    assert theta3_minus_one(x) == pytest.approx(want - 1.0, rel=1e-12)


@pytest.mark.parametrize("x", THETA_GRID)
def test_theta2_value(x):
    want = theta2_reference(x)
    assert theta_offset(0.5, x) == pytest.approx(want, rel=1e-14)


def test_theta3_minus_one_no_cancellation():
    # at large x the full theta is 1 + tiny; the _minus_one form must keep
    # the tiny part at full relative precision
    x = 60.0
    direct = 2.0 * (math.exp(-x) + math.exp(-4.0 * x))
    assert theta3_minus_one(x) == pytest.approx(direct, rel=1e-13)
    assert theta_offset(0.0, x) == 1.0 + theta3_minus_one(x)


@pytest.mark.parametrize("offset", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.3, -0.4])
@pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 3.2, 8.0])
def test_theta_offset_value(offset, x):
    # direct two-sided sum over j + offset
    c = offset - math.floor(offset)
    acc = 0.0
    for j in range(-80, 81):
        acc += math.exp(-((j + c) ** 2) * x)
    assert theta_offset(offset, x) == pytest.approx(acc, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 50.0))
def test_theta_quarter_argument_identity(x):
    # theta2(x) + theta3(x) = theta3(x/4): interleaving integer and
    # half-integer grids gives the half-step grid
    lhs = theta_offset(0.5, x) + theta_offset(0.0, x)
    rhs = theta_offset(0.0, x / 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.02, 60.0))
def test_theta3_modular_identity(x):
    # sqrt(x/pi) theta3(x) = theta3(pi^2/x); this crosses the internal
    # branch switch so both summation paths get exercised
    lhs = math.sqrt(x / math.pi) * theta_offset(0.0, x)
    rhs = theta_offset(0.0, math.pi * math.pi / x)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_theta_domain_errors():
    # at x = inf the direct sum would loop for ever: exp(-0 * inf) is nan
    sums = (theta3_minus_one, lambda x: theta_offset(0.0, x),
            lambda x: theta_offset(0.3, x), lambda x: theta2_derivatives(2, x))
    for fn in sums:
        for x in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                fn(x)


# ------------------------------------------------------ dual-sum term limits
# Below x = pi the dual argument pi^2/x exceeds pi, so the dual sums stop
# by j = 4 (theta_offset) and j = 5 (theta2_derivatives).  Lowering each
# limit to that index must leave every call over x in [1e-8, pi) working;
# one less must raise SeriesError somewhere, so the index is reached.

DUAL_XS = [10.0 ** (-8.0 + 8.497 * i / 200) for i in range(201)] \
    + [math.nextafter(math.pi, 0.0)]
OFFSETS = [k / 16 for k in range(16)] + [0.123, 0.377, 0.9]


def _dual_failures(monkeypatch, offset_max, derivative_max):
    monkeypatch.setattr(quadrature, "_THETA_OFFSET_MAX_J", offset_max)
    monkeypatch.setattr(quadrature, "_THETA_DERIVATIVE_MAX_J", derivative_max)
    failed_offset = failed_derivative = 0
    for x in DUAL_XS:
        assert x < math.pi
        for c in OFFSETS:
            try:
                theta_offset(c, x)
            except SeriesError:
                failed_offset += 1
        for order in range(1, 9):
            try:
                theta2_derivatives(order, x)
            except SeriesError:
                failed_derivative += 1
    return failed_offset, failed_derivative


def test_dual_theta_sums_stop_by_their_index(monkeypatch):
    assert _dual_failures(monkeypatch, 4, 5) == (0, 0)
    failed_offset, failed_derivative = _dual_failures(monkeypatch, 3, 4)
    assert failed_offset > 0 and failed_derivative > 0


def test_dual_theta_limit_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_THETA_OFFSET_MAX_J", 1)
    monkeypatch.setattr(quadrature, "_THETA_DERIVATIVE_MAX_J", 1)
    with pytest.raises(SeriesError):
        theta_offset(0.25, 3.0)
    with pytest.raises(SeriesError):
        theta2_derivatives(2, 3.0)


# ---------------------------------------------------------- theta derivatives

def test_theta_derivative_order_zero_matches_values():
    for x in (0.05, 1.0, 3.0, 3.2, 12.0):
        assert theta2_derivatives(0, x)[0] == pytest.approx(theta_offset(0.5, x), rel=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("x", [1e-2, 0.1, 0.5, 1.0, 2.0, 3.1, 3.2, 10.0, 100.0])
def test_theta_derivative_vs_finite_difference(order, x):
    h0 = min(0.05 * x, 0.4)
    want2 = theta2_derivatives(order, x)[order]
    got2, _ = richardson_derivative(lambda v: theta_offset(0.5, v), x, order, h0=h0)
    assert got2 == pytest.approx(want2, rel=1e-7)


def test_theta_derivative_against_termwise_sum():
    # d^r/dx^r sum exp(-h^2 x) = sum (-h^2)^r exp(-h^2 x), summable directly
    for x in (0.8, 2.0, 5.0):
        for r in (1, 2, 4, 6, 8):
            acc = 0.0
            for j in range(0, 400):
                h = j + 0.5
                acc += (h * h) ** r * math.exp(-h * h * x)
            want = (-1.0) ** r * 2.0 * acc
            assert theta2_derivatives(r, x)[r] == pytest.approx(want, rel=1e-12)


MPMATH_XS = [1e-3, 1e-2, 0.05, 0.3, 1.0, 2.0, math.nextafter(math.pi, 0.0), math.pi,
             3.5, 5.0, 12.0, 40.0]


@pytest.mark.parametrize("x", MPMATH_XS)
def test_theta2_derivatives_against_mpmath(x):
    # direct sum of (-h^2)^r exp(-h^2 x) over h = j + 1/2 at 40 digits,
    # out to h^2 x = 300, where the terms are far below the doubles'
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        want = [mpmath.mpf(0)] * 9
        for j in range(int(math.sqrt(300.0 / x)) + 10):
            h2 = (j + mpmath.mpf(0.5)) ** 2
            term = 2 * mpmath.exp(-h2 * xm)
            for r in range(9):
                want[r] += term
                term *= -h2
        want = [float(w) for w in want]
    for order in range(9):
        got = theta2_derivatives(order, x)
        assert len(got) == order + 1
        for r in range(order + 1):
            assert abs(got[r] / want[r] - 1.0) <= 1e-13, (order, r)


def test_theta_derivative_argument_checks():
    with pytest.raises(ValueError):
        theta2_derivatives(-1, 1.0)
    with pytest.raises(ValueError):
        theta2_derivatives(9, 1.0)
    with pytest.raises(ValueError):
        theta2_derivatives(1, 0.0)


# ----------------------------------------------------- odd-series / asymmetry

def naive_sym_diff(s, delta):
    return hurwitz_zeta(s, delta) - hurwitz_zeta(s, 1.0 - delta)


def half_point_series(s, u):
    """S_s(u) as the solvers form it: the head 2 g_1 times the exp of
    the log ratio in t = u^2."""
    return 2.0 * half_point_odd_head(s)[0] * math.exp(half_point_log_ratio(s, u * u)[0])


def small_gap_series(s, d):
    """V_s(d) as small_gap_log_ratio sums it, from the table of s."""
    t = specfun._zeta_table(s)
    return 2.0 * specfun._table_sum(t, t.a[1], d, d * d, 0.0)[0]


def sym_diff(s, delta):
    """zeta(s, delta) - zeta(s, 1 - delta) from the two odd series: the
    half-point one from delta = 1/4 on, else the small-gap one."""
    if delta > 0.5:
        return -sym_diff(s, 1.0 - delta)
    if delta >= 0.25:
        u = 0.5 - delta
        return 2.0 * u * half_point_series(s, u)
    return delta ** -s - small_gap_series(s, delta)


@pytest.mark.parametrize("s", [3.0, 7.0, 8.0, 13.0])
@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2, 0.24, 0.26, 0.35, 0.45])
def test_sym_diff_matches_naive_difference(s, delta):
    # the naive difference is accurate enough away from delta = 1/2
    want = naive_sym_diff(s, delta)
    got = sym_diff(s, delta)
    assert got == pytest.approx(want, rel=1e-11)


def test_sym_diff_near_half_keeps_precision():
    # close to delta = 1/2 the naive difference loses digits; the series
    # form must keep full relative accuracy.  Reference: odd-k Taylor sum
    # done termwise with the reference zeta.
    s = 7.0
    for u in (1e-3, 1e-6, 1e-9):
        delta = 0.5 - u
        acc = 0.0
        rising = s
        fact = 1.0
        k = 1
        while k < 30:
            acc += rising / fact * u ** k * (2.0 ** (s + k) - 1.0) \
                * riemann_zeta(s + k)
            rising *= (s + k) * (s + k + 1.0)
            fact *= (k + 1.0) * (k + 2.0)
            k += 2
        want = 2.0 * acc
        assert sym_diff(s, delta) == pytest.approx(want, rel=1e-13)


def test_sym_diff_branch_crossing_continuity():
    s = 8.0
    lo = sym_diff(s, 0.25 - 1e-9)
    hi = sym_diff(s, 0.25 + 1e-9)
    assert lo == pytest.approx(hi, rel=1e-7)


def test_sym_diff_signs_and_edges():
    s = 7.0
    assert sym_diff(s, 0.5) == 0.0
    assert sym_diff(s, 0.3) > 0.0


def test_half_point_odd_series_consistency():
    # 2 u S_s(u) = zeta(s, 1/2 - u) - zeta(s, 1/2 + u)
    s = 13.0
    for u in (0.01, 0.1, 0.2, 0.24):
        got = 2.0 * u * half_point_series(s, u)
        want = naive_sym_diff(s, 0.5 - u)
        assert got == pytest.approx(want, rel=1e-11)


def test_odd_series_term_limit_raises():
    # at u = 0.49 the half-point series, and so its log ratio in t = u^2,
    # needs far more than its term limit
    # (the truncated sum was 54% off the dps-40 value); near d = 1 so does
    # the small-gap series.  Both raise instead of returning the partial sum
    with pytest.raises(SeriesError):
        half_point_log_ratio(13.0, 0.49 ** 2)
    with pytest.raises(SeriesError):
        small_gap_log_ratio(13.0, 0.99)
    assert issubclass(SeriesError, ArithmeticError)


def test_half_point_odd_series_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    s = 13.0
    for u in (0.01, 0.25):
        with mpmath.workdps(40):
            want = (mpmath.zeta(s, 0.5 - u) - mpmath.zeta(s, 0.5 + u)) / (2 * u)
        assert half_point_series(s, u) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("s", [7.0, 13.0, 39.5])
@pytest.mark.parametrize("d", [1e-3, 0.1, 0.3])
def test_small_gap_log_ratio(s, d):
    # the log of D_s over its nearest term, and its derivative, against
    # the dps-40 ones
    mpmath = pytest.importorskip("mpmath")
    value, slope = small_gap_log_ratio(s, d)
    with mpmath.workdps(40):
        def f(x):
            return mpmath.log(x ** s * (mpmath.zeta(s, x) - mpmath.zeta(s, 1 - x)))
        want_value = f(mpmath.mpf(d))
        want = mpmath.diff(f, mpmath.mpf(d))
    assert value == pytest.approx(float(want_value), rel=1e-13)
    assert slope == pytest.approx(float(want), rel=1e-11)


@pytest.mark.parametrize("s", [7.0, 13.0, 101.0])
def test_half_point_log_ratio_slope(s):
    mpmath = pytest.importorskip("mpmath")
    for t in (0.0, 1e-4, 0.02):
        slope = half_point_log_ratio(s, t)[1]
        with mpmath.workdps(40):
            def f(v):
                u = mpmath.sqrt(v)
                return mpmath.log((mpmath.zeta(s, 0.5 - u) - mpmath.zeta(s, 0.5 + u))
                                  / (2 * u * 2 * half_point_odd_head(s)[0]))
            want = mpmath.diff(f, mpmath.mpf(t)) if t else 4 * mpmath.mpf(
                half_point_odd_head(s)[1])
        assert slope == pytest.approx(float(want), rel=1e-11), t


def test_small_gap_odd_series_consistency():
    # delta^{-s} - V_s(delta) = zeta(s, delta) - zeta(s, 1 - delta)
    s = 7.0
    for delta in (0.02, 0.1, 0.2, 0.24):
        got = delta ** (-s) - small_gap_series(s, delta)
        want = naive_sym_diff(s, delta)
        assert got == pytest.approx(want, rel=1e-11)


# ------------------------------------------------------------ zeta tables
# The table sums against the per-term odd series they replaced
# (references.py).

TABLE_EXPONENTS = [4.0, 7.0, 7.5, 8.0, 9.0, 12.0, 13.0, 99.0, 100.0, 101.0]


@pytest.mark.parametrize("s", TABLE_EXPONENTS)
def test_odd_series_match_per_term_reference(s):
    for u in (0.0, 1e-6, 0.01, 0.1, 0.2, 0.25):
        want = reference_half_point_odd_series(s, u)
        assert half_point_series(s, u) == pytest.approx(want, rel=1e-13)
    for d in (1e-6, 0.01, 0.1, 0.2, 0.249):
        want = reference_small_gap_odd_series(s, d)
        assert small_gap_series(s, d) == pytest.approx(want, rel=1e-13)


def test_odd_series_tables_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for s in (7.0, 13.0, 101.0):
        for u in (0.05, 0.2):
            with mpmath.workdps(40):
                want = (mpmath.zeta(s, 0.5 - u) - mpmath.zeta(s, 0.5 + u)) / (2 * u)
            assert half_point_series(s, u) == pytest.approx(float(want), rel=1e-13)
        for d in (0.05, 0.2):
            with mpmath.workdps(40):
                want = mpmath.zeta(s, 1 - d) - mpmath.zeta(s, 1 + d)
            assert small_gap_series(s, d) == pytest.approx(float(want), rel=1e-13)


def test_pair_sum_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for s in (3.0, 7.5, 12.0, 100.0):
        for delta in (1e-3, 0.1, 0.26, 0.3, 1.0 / 3.0, 0.45, 0.5, 0.7):
            with mpmath.workdps(40):
                want = mpmath.zeta(s, delta) + mpmath.zeta(s, 1 - delta)
            got = hurwitz_pair_sum(s, delta)
            assert got == pytest.approx(float(want), rel=2e-14)


def test_pair_sum_scale_keeps_the_nearest_term():
    # x^-s underflows and delta^-s overflows, but (x delta)^-s is near 1
    s, x, delta = 100.0, 2e4, 1.0 / 2e4
    got = hurwitz_pair_sum(s, delta, x)
    assert math.isfinite(got)
    assert got == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        hurwitz_pair_sum(s, 0.0)


@pytest.mark.parametrize("x", [20.0, 20.5, 27.3, 50.0, 101.0, 300.0, 700.0])
def test_zeta_direct_sum_against_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(mpmath.zeta(x))
    assert abs(riemann_zeta(x) - want) <= 2.5e-16 * want


def test_fresh_exponents_leave_caches_bounded():
    # tables for fresh exponents are filled without riemann_zeta, and
    # every cache keyed on exponents stays within its bound
    from ljchain import hardcore, specfun, transition
    from ljchain.hardcore import HardCoreConfig, junction
    from ljchain.potential import mie_potential

    zeta_entries = riemann_zeta.cache_info().currsize
    for i in range(500):
        s = 5.0 + i / 7.0 + 1e-9
        half_point_log_ratio(s, 0.01)
        small_gap_log_ratio(s, 0.1)
        hurwitz_pair_sum(s, 0.3)
    assert riemann_zeta.cache_info().currsize == zeta_entries
    for i in range(500):
        m = 3.0 + i / 50.0 + 1e-9
        junction(HardCoreConfig(mie_potential(m + 2.0, m), 1.001))
    caches = (riemann_zeta, specfun._zeta_table, transition._critical_A,
              hardcore._junction_cached)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
    assert specfun._zeta_table.cache_info().currsize == specfun._TABLES_MAXSIZE


def test_euler_maclaurin_coefficients_are_exact_ratios_rounded():
    # B_2 .. B_16 over (2j)!, each the double nearest the exact rational
    from fractions import Fraction
    bernoulli = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                 Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510)]
    want = tuple(float(b / math.factorial(2 * j)) for j, b in enumerate(bernoulli, 1))
    assert specfun._EM_COEF == want


def test_fresh_table_holds_only_what_a_solve_used(monkeypatch):
    # one deeply dimerized solve at fresh exponents: its tables stop
    # short of 32 coefficients, and each coefficient equals, bit for
    # bit, that of a table built past 64 in one pass
    from ljchain.potential import mie_potential
    from ljchain.transition import solve_delta

    n, m = 12.0 + 2.0 ** -30, 6.0 + 2.0 ** -30
    misses = specfun._zeta_table.cache_info().misses
    assert solve_delta(mie_potential(n, m), 100.0).branch == "bipartite"
    assert specfun._zeta_table.cache_info().misses > misses
    monkeypatch.setattr(specfun, "_TABLE_START", 128)
    for s in (n + 1.0, m + 1.0):
        short = specfun._zeta_table(s)
        assert 0 < short.k < 32
        long = specfun._ZetaTable(s)
        assert long.k > 64
        for family in ("a", "g"):
            for parity in (0, 1):
                have = getattr(short, family)[parity]
                assert have == getattr(long, family)[parity][:len(have)]

