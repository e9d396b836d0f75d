"""Special functions for one-dimensional lattice sums.

Everything here is built on two workhorses: a Hurwitz zeta evaluated by
Euler-Maclaurin summation, and Jacobi-type theta sums with automatic
Poisson resummation for small argument.  The theta functions are
parameterized by the exponent x, i.e. theta3(x) = sum_j exp(-j^2 x),
which is the natural variable for heat-kernel representations of
inverse-power sums (x = q-nome convention would be exp(-x)).

Accuracy targets (checked in the test suite):
    riemann_zeta      rel <= 1e-13
    hurwitz_zeta      rel <= 1e-12
    zeta_log_derivative  rel <= 1e-10
    theta2, theta3    abs <= 1e-14 for x >= 1e-2
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "SeriesError",
    "hurwitz_zeta",
    "riemann_zeta",
    "zeta_log_derivative",
    "theta2",
    "theta3",
    "theta3_minus_one",
    "theta_offset",
    "theta_derivative",
    "hurwitz_sym_diff",
    "half_point_odd_series",
    "small_gap_odd_series",
]

# B_{2j}/(2j)! for j = 1..8, enough for ~1e-15 once the summation start
# point a+N is pushed past ~15
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
)
_EM_COEF = tuple(float(b / math.factorial(2 * (j + 1))) for j, b in enumerate(_BERNOULLI))

# odd-series terms summed before giving up on convergence
_SERIES_MAX_K = 600


class SeriesError(ArithmeticError):
    """Raised when a series has not converged within its term limit."""


def _em_start(s: float, a: float) -> int:
    # push the tail start to a+N >= 15 (more for large s, the correction
    # terms carry factors (s)_{2j-1})
    return max(0, math.ceil(15.0 * max(1.0, s / 4.0) - a))


def hurwitz_zeta(s: float, a: float) -> float:
    """sum_{k>=0} (a+k)^-s for s > 1, a > 0, by Euler-Maclaurin.

    Relative accuracy ~1e-14 over the ranges used here (s up to ~70,
    a in (0, 50]).  Very large s just underflows gracefully.
    """
    if not s > 1.0:
        raise ValueError("hurwitz_zeta requires s > 1")
    if not a > 0.0:
        raise ValueError("hurwitz_zeta requires a > 0")
    n0 = _em_start(s, a)
    acc = 0.0
    for k in range(n0):
        acc += (a + k) ** -s
    x = a + n0
    acc += x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** -s
    x2 = x * x
    rising = s                  # (s)_1
    pw = x ** (-s - 1.0)
    for j, c in enumerate(_EM_COEF):
        acc += c * rising * pw
        rising *= (s + 2 * j + 1.0) * (s + 2 * j + 2.0)
        pw /= x2
    return acc


@lru_cache(maxsize=None)
def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1."""
    return hurwitz_zeta(s, 1.0)


def _zeta_with_derivative(s: float, a: float = 1.0) -> tuple[float, float]:
    # Euler-Maclaurin formula differentiated term by term in s.
    # The rising factorial (s)_{2j-1} and its s-derivative are carried
    # through the same two-factor recurrence.
    if not s > 1.0:
        raise ValueError("requires s > 1")
    n0 = _em_start(s, a)
    val = 0.0
    dval = 0.0
    for k in range(n0):
        b = (a + k) ** -s
        val += b
        dval -= math.log(a + k) * b
    x = a + n0
    lx = math.log(x)
    t = x ** (1.0 - s) / (s - 1.0)
    px = x ** -s
    val += t + 0.5 * px
    dval += t * (-lx - 1.0 / (s - 1.0)) - 0.5 * lx * px
    x2 = x * x
    rising = s
    drising = 1.0
    pw = x ** (-s - 1.0)
    for j, c in enumerate(_EM_COEF):
        val += c * rising * pw
        dval += c * pw * (drising - rising * lx)
        f1 = s + 2 * j + 1.0
        f2 = s + 2 * j + 2.0
        drising = drising * f1 * f2 + rising * (f1 + f2)
        rising *= f1 * f2
        pw /= x2
    return val, dval


def zeta_log_derivative(s: float) -> float:
    """zeta'(s)/zeta(s) for s > 1."""
    v, dv = _zeta_with_derivative(s, 1.0)
    return dv / v


# ---------------------------------------------------------------------------
# theta sums.  Direct summation for x >= pi, Poisson resummation below;
# pi is the self-dual point of x -> pi^2/x so both branches converge at
# worst like exp(-pi * j^2).

_SWITCH = math.pi


def theta3(x: float) -> float:
    """sum_{j in Z} exp(-j^2 x)."""
    if not x > 0.0:
        raise ValueError("theta3 requires x > 0")
    if x >= _SWITCH:
        return 1.0 + theta3_minus_one(x)
    return math.sqrt(math.pi / x) * theta3(math.pi * math.pi / x)


def theta3_minus_one(x: float) -> float:
    """theta3(x) - 1 without cancellation for large x."""
    if not x > 0.0:
        raise ValueError("requires x > 0")
    if x < _SWITCH:
        return math.sqrt(math.pi / x) * theta3(math.pi * math.pi / x) - 1.0
    acc = 0.0
    j = 1
    while True:
        term = math.exp(-j * j * x)
        acc += term
        if term <= 1e-19 * acc:
            break
        j += 1
    return 2.0 * acc


def theta2(x: float) -> float:
    """sum_{j in Z} exp(-(j + 1/2)^2 x)."""
    if not x > 0.0:
        raise ValueError("theta2 requires x > 0")
    if x >= _SWITCH:
        acc = 0.0
        j = 0
        while True:
            h = j + 0.5
            term = math.exp(-h * h * x)
            acc += term
            if term <= 1e-19 * acc:
                break
            j += 1
        return 2.0 * acc
    # alternating dual sum
    y = math.pi * math.pi / x
    acc = 1.0
    j = 1
    sgn = -1.0
    while True:
        term = 2.0 * sgn * math.exp(-j * j * y)
        acc += term
        if abs(term) <= 1e-19 * acc:
            break
        j += 1
        sgn = -sgn
    return math.sqrt(math.pi / x) * acc


def theta_offset(offset: float, x: float) -> float:
    """sum_{j in Z} exp(-(j + offset)^2 x) for any real offset.

    Generalizes theta3 (offset 0) and theta2 (offset 1/2).  The dual form
    is sqrt(pi/x) * sum_j cos(2 pi j offset) exp(-pi^2 j^2 / x).
    """
    if not x > 0.0:
        raise ValueError("theta_offset requires x > 0")
    c = offset - math.floor(offset)
    if x >= _SWITCH:
        # pair the tails going right from c and left from c-1
        acc = 0.0
        j = 0
        while True:
            t1 = math.exp(-(j + c) * (j + c) * x)
            h = j + 1.0 - c
            t2 = math.exp(-h * h * x)
            acc += t1 + t2
            if t1 + t2 <= 1e-19 * acc:
                break
            j += 1
        return acc
    y = math.pi * math.pi / x
    w = 2.0 * math.pi * c
    acc = 1.0
    j = 1
    while True:
        term = 2.0 * math.cos(j * w) * math.exp(-j * j * y)
        acc += term
        if abs(term) <= 1e-19 * abs(acc) or j > 80:
            break
        j += 1
    return math.sqrt(math.pi / x) * acc


def _dual_poly(order: int, c: float) -> list[float]:
    # coefficients of Q_r(y) with
    #   d^r/dx^r [x^{-1/2} exp(-c/x)] = x^{-1/2} exp(-c/x) Q_r(1/x)
    # built from Q_{r+1} = (c y^2 - y/2) Q_r - y^2 Q_r'
    q = [1.0]
    for _ in range(order):
        nq = [0.0] * (len(q) + 2)
        for i, qi in enumerate(q):
            nq[i + 2] += c * qi
            nq[i + 1] -= 0.5 * qi
            if i > 0:
                nq[i + 1] -= i * qi
        q = nq
    return q


def _poly_eval(coefs: list[float], y: float) -> float:
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * y + c
    return acc


def theta_derivative(kind: int, order: int, x: float) -> float:
    """d^order/dx^order of theta2 (kind=2) or theta3 (kind=3)."""
    if kind not in (2, 3):
        raise ValueError("kind must be 2 or 3")
    if not isinstance(order, int) or not 0 <= order <= 8:
        raise ValueError("order must be an integer in [0, 8]")
    if not x > 0.0:
        raise ValueError("requires x > 0")
    if order == 0:
        return theta2(x) if kind == 2 else theta3(x)
    if x >= _SWITCH:
        shift = 0.5 if kind == 2 else 0.0
        acc = 0.0
        j = 0 if kind == 2 else 1
        while True:
            h = j + shift
            z = h * h * x
            term = h ** (2 * order) * math.exp(-z)
            acc += term
            if term <= 1e-20 * acc and z > order:
                break
            j += 1
        return (-1.0) ** order * 2.0 * acc
    # differentiate the dual representation term by term
    y = 1.0 / x
    root = math.sqrt(math.pi * y)
    acc = 0.0
    scale = 0.0
    j = 0
    while True:
        cj = math.pi * math.pi * j * j
        q = _dual_poly(order, cj)
        term = root * math.exp(-cj * y) * _poly_eval(q, y)
        if kind == 2 and j % 2 == 1:
            term = -term
        if j > 0:
            term *= 2.0
        acc += term
        scale = max(scale, abs(term))
        if abs(term) <= 1e-20 * max(scale, 1e-300) and j >= 1:
            break
        j += 1
        if j > 200:
            break
    return acc


# ---------------------------------------------------------------------------
# stabilized symmetric Hurwitz differences.  The combination
#     D_s(delta) = zeta(s, delta) - zeta(s, 1 - delta)
# appears in stationarity conditions of two-periodic chains and suffers
# catastrophic cancellation both as delta -> 1/2 (D -> 0) and, in
# log-ratio form, as delta -> 0.  Two series fix this.


def half_point_odd_series(s: float, u: float) -> float:
    """S_s(u) = sum_{k odd} u^{k-1} (s)_k zeta(s+k, 1/2) / k!

    so that D_s(1/2 - u) = 2 u S_s(u).  Finite and smooth at u = 0.
    Converges for |u| < 1/2; intended for |u| <= 1/4.  Raises SeriesError
    when the terms have not fallen below 1e-18 of the sum within the term
    limit, as happens for |u| close to 1/2.
    """
    k = 1
    coef = s
    u2 = u * u
    acc = 0.0
    while True:
        sk = s + k
        term = coef * (2.0 ** sk - 1.0) * riemann_zeta(sk)
        acc += term
        if abs(term) <= 1e-18 * abs(acc):
            return acc
        if k > _SERIES_MAX_K:
            raise SeriesError(
                f"half_point_odd_series({s!r}, {u!r}) not converged after "
                f"{_SERIES_MAX_K} terms")
        coef *= (s + k) * (s + k + 1.0) * u2 / ((k + 1.0) * (k + 2.0))
        k += 2


def small_gap_odd_series(s: float, d: float) -> float:
    """V_s(d) = zeta(s, 1-d) - zeta(s, 1+d) = 2 sum_{k odd} d^k (s)_k zeta(s+k)/k!

    Converges for |d| < 1; all terms positive for d > 0.  Then
    D_s(d) = d^-s - V_s(d), and log D_s is best formed through log1p on
    the small product d^s V_s(d).  Raises SeriesError when the series
    has not converged within the term limit, as happens for d close to 1.
    """
    k = 1
    coef = 2.0 * s * d
    d2 = d * d
    acc = 0.0
    while True:
        term = coef * riemann_zeta(s + k)
        acc += term
        if term <= 1e-18 * acc:
            return acc
        if k > _SERIES_MAX_K:
            raise SeriesError(
                f"small_gap_odd_series({s!r}, {d!r}) not converged after "
                f"{_SERIES_MAX_K} terms")
        coef *= (s + k) * (s + k + 1.0) * d2 / ((k + 1.0) * (k + 2.0))
        k += 2


def hurwitz_sym_diff(s: float, delta: float) -> float:
    """zeta(s, delta) - zeta(s, 1 - delta), stable over all of (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if delta > 0.5:
        return -hurwitz_sym_diff(s, 1.0 - delta)
    if delta >= 0.25:
        u = 0.5 - delta
        return 2.0 * u * half_point_odd_series(s, u)
    return delta ** -s - small_gap_odd_series(s, delta)
