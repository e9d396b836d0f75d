"""Special functions for one-dimensional lattice sums.

Two workhorses: a Hurwitz zeta evaluated by Euler-Maclaurin summation,
and per-exponent tables of the Taylor coefficients of the Hurwitz zeta
in its second argument.  The theta sums of the heat-kernel route live
with that route, in `quadrature`.

The tables (DLMF 25.11.10) hold, for one exponent s,

    a_k = (s)_k zeta(s+k) / k!                     expansion around 1
    g_k = (s)_k (2^s - 2^-k) zeta(s+k) / k!        around 1/2, in v = 2u

so that with u = 1/2 - delta

    zeta(s, 1/2 - u) +- zeta(s, 1/2 + u) = 2 sum_{k even/odd} g_k v^k
    zeta(s, 1 - d)   +- zeta(s, 1 + d)   = 2 sum_{k even/odd} a_k d^k

The odd sums give the symmetric differences of the stationarity
condition, the even sums the two-periodic lattice sum.  Around 1/2 the
odd sum is 2u S_s(u), S_s(u) = 2 sum_{k odd} g_k v^{k-1}, and it is used
in one form only: the head S_s(0) = 2 g_1 (half_point_odd_head) and the
log ratio log(S_s(u)/S_s(0)) in t = u^2 (half_point_log_ratio); away
from it, that of D_s to its nearest term (small_gap_log_ratio), both
with their derivative from the same pass.  A table is built the first
time its exponent is asked for, grows on demand up to the term limit,
and is kept in a bounded LRU cache.  hurwitz_zeta stays as the
independent route the checks compare against.

Accuracy targets (checked in the test suite):
    riemann_zeta      rel <= 1e-13
    hurwitz_zeta      rel <= 1e-12
    zeta_log_derivative  rel <= 1e-10
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import length_hint

__all__ = [
    "SeriesError",
    "hurwitz_zeta",
    "riemann_zeta",
    "zeta_log_derivative",
    "hurwitz_pair_sum",
    "half_point_odd_head",
    "half_point_log_ratio",
    "small_gap_log_ratio",
]

# B_{2j}/(2j)! for j = 1..8, enough for ~1e-15 once the summation start
# point a+N is pushed past ~15.  B_{2j} = p/q; int/int division rounds
# correctly, so each coefficient is the double nearest the exact ratio
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30),
              (5, 66), (-691, 2730), (7, 6), (-3617, 510))
_EM_COEF = tuple(p / (q * math.factorial(2 * j)) for j, (p, q) in enumerate(_BERNOULLI, 1))

# highest Taylor index k a series may reach before SeriesError
_SERIES_MAX_K = 601
# a series stops at the first term at or below this fraction of its value
_SERIES_STOP = 1e-18
# hurwitz_pair_sum splits off the nearest term below this offset, where
# its series in delta converges faster than the one in v = 1 - 2 delta,
# and wherever the mirror terms fall below _SERIES_STOP of the nearest,
# i.e. s log((1-delta)/delta) >= _LOG_STOP
_PAIR_SPLIT = 1.0 / 3.0
_LOG_STOP = -math.log(_SERIES_STOP)
# coefficients a fresh table starts with; it doubles on demand
_TABLE_START = 8
# bounded caches: distinct exponents with a table, and riemann_zeta values
_TABLES_MAXSIZE = 256
_ZETA_MAXSIZE = 16384
# from this argument on, zeta is a short direct sum (_zeta)
_ZETA_DIRECT = 20.0
_ZETA_DIRECT_TERMS = 7


class SeriesError(ArithmeticError):
    """Raised when a series has not converged within its term limit."""


def _em_start(s: float, a: float) -> int:
    # push the tail start to a+N >= 15 (more for large s, the correction
    # terms carry factors (s)_{2j-1})
    return max(0, math.ceil(15.0 * max(1.0, s / 4.0) - a))


def hurwitz_zeta(s: float, a: float) -> float:
    """sum_{k>=0} (a+k)^-s for s > 1, a > 0, by Euler-Maclaurin.

    Relative accuracy ~1e-14 over the ranges used here (s up to ~70,
    a in (0, 50]).  For large s the value tends to a^-s, which
    underflows gracefully for a > 1; for a < 1 it overflows, and
    OverflowError is raised (hurwitz_zeta(800, 0.3) is ~1e418).
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


def _zeta(s: float) -> float:
    # uncached zeta(s).  For s >= 20 a direct sum to j = 6 with the
    # Euler-Maclaurin tail through the B_2 term: the first omitted term,
    # (s)_3 7^(-s-3) / 720, is below 1e-17 there
    if s < _ZETA_DIRECT:
        return hurwitz_zeta(s, 1.0)
    n = float(_ZETA_DIRECT_TERMS)
    acc = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s + s / 12.0 * n ** (-s - 1.0)
    for j in range(_ZETA_DIRECT_TERMS - 1, 1, -1):
        acc += j ** -s
    return 1.0 + acc


@lru_cache(maxsize=_ZETA_MAXSIZE)
def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1."""
    return _zeta(s)


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
# per-exponent zeta tables and the series built on them.  The symmetric
# difference
#     D_s(delta) = zeta(s, delta) - zeta(s, 1 - delta)
# appears in stationarity conditions of two-periodic chains and suffers
# catastrophic cancellation both as delta -> 1/2 (D -> 0) and, in
# log-ratio form, as delta -> 0; the sum zeta(s, delta) + zeta(s, 1-delta)
# is the two-periodic lattice sum.  The odd and even halves of the two
# Taylor expansions give all four without cancellation.


class _ZetaTable:
    """a_k and g_k of one exponent s, split by the parity of k.

    grow() appends coefficients until _SERIES_MAX_K.  A family stops
    growing at its first coefficient that overflows; a series that needs
    more terms than its family holds raises SeriesError.
    """
    __slots__ = ("s", "two_s", "k", "rising", "a", "g")

    def __init__(self, s: float):
        self.s = s
        self.two_s = 2.0 ** s
        self.k = 0                  # next index to compute
        self.rising = 1.0           # (s)_k / k!
        self.a = ([], [])           # a_k for even k, for odd k
        self.g = ([], [])
        self.grow()

    def grow(self) -> None:
        # nothing is appended once k reaches the limit
        s = self.s
        k_end = min(max(2 * self.k, _TABLE_START), _SERIES_MAX_K + 1)
        rising = self.rising
        for k in range(self.k, k_end):
            ak = rising * _zeta(s + k)
            gk = ak * (self.two_s - math.ldexp(1.0, -k))
            if len(self.a[0]) + len(self.a[1]) == k and ak < math.inf:
                self.a[k & 1].append(ak)
            if len(self.g[0]) + len(self.g[1]) == k and gk < math.inf:
                self.g[k & 1].append(gk)
            rising *= (s + k) / (k + 1.0)
        self.k = k_end
        self.rising = rising


@lru_cache(maxsize=_TABLES_MAXSIZE)
def _zeta_table(s: float) -> _ZetaTable:
    return _ZetaTable(s)


def _table_sum(table: _ZetaTable, coefs: list, p: float, x2: float,
               floor: float, start: int = 0) -> tuple[float, float] | None:
    """sum_{i>=start} coefs[i] p x2^(i-start) over a coefficient list of
    table, and x2 times its derivative in x2, sum_j (acc_N - acc_j) over
    the partial sums acc_j of its N terms.

    Stops at the first term at or below _SERIES_STOP times the sum plus
    floor (the part of the whole value outside this sum), growing the
    table as needed; None at the term limit.  The terms must be
    nonnegative, and start at most the length of coefs.
    """
    stop = _SERIES_STOP
    acc = partials = 0.0
    done = start
    while True:
        terms = coefs[done:] if done else coefs
        it = iter(terms)
        for c in it:
            term = c * p
            acc += term
            partials += acc
            if term <= stop * (acc + floor):
                n = done - start + len(terms) - length_hint(it)
                return acc, n * acc - partials
            p *= x2
        done = len(coefs)
        table.grow()
        if len(coefs) == done:
            return None


def half_point_odd_head(s: float) -> tuple[float, float]:
    """g_1 and g_3/g_1 from the table of s, for s > 1.

    S_s(0) = 2 g_1, and S_s(u)/S_s(0) = 1 + (g_3/g_1) 4u^2 + O(u^4).
    Raises SeriesError when the odd family overflows before g_3, as
    happens for s past ~1000.
    """
    g = _zeta_table(s).g[1]
    if len(g) < 2:
        raise SeriesError(f"half_point_odd_head({s!r}): coefficients overflow")
    return g[0], g[1] / g[0]


def half_point_log_ratio(s: float, t: float) -> tuple[float, float]:
    """log(S_s(u)/S_s(0)) with t = u^2, and its derivative in t, for s > 1.

    log1p of sum_{i>=1} (g_{2i+1}/g_1) (4t)^i, so that nothing of order
    one is added and subtracted and the value keeps its relative
    precision however small t is.  Converges for t < 1/4.  Raises
    SeriesError when the terms have not fallen below 1e-18 of 1 plus the
    sum by k = 601, or the coefficients overflow first, as happens for t
    close to 1/4 or s in the hundreds.
    """
    tab = _zeta_table(s)
    g = tab.g[1]
    x2 = 4.0 * t
    r = _table_sum(tab, g, x2 / g[0], x2, 1.0, 1) if g else None
    if r is None:
        raise SeriesError(
            f"half_point_log_ratio({s!r}, {t!r}) not converged by k = {_SERIES_MAX_K}")
    acc, wacc = r                       # term i carries (4t)^(i+1)
    slope = (acc + wacc) / t if t else 4.0 * g[1] / g[0]
    return math.log1p(acc), slope / (1.0 + acc)


def small_gap_log_ratio(s: float, d: float) -> tuple[float, float]:
    """log(d^s D_s(d)) = log1p(-d^s V_s(d)), D_s over its nearest term,
    and its derivative in d, for s > 1 and 0 < d < 1, with V_s(d) =
    2 sum_{k odd} a_k d^k.  Raises SeriesError when the terms have not
    fallen below 1e-18 of the sum by k = 601, as happens for d near 1."""
    t = _zeta_table(s)
    p = d ** s
    r = _table_sum(t, t.a[1], d, d * d, 0.0)
    if r is None:
        raise SeriesError(
            f"small_gap_log_ratio({s!r}, {d!r}) not converged by k = {_SERIES_MAX_K}")
    acc, wacc = r                       # V_s = 2 acc; term i carries d^(2i+1)
    x = 2.0 * p * acc
    return math.log1p(-x), -2.0 * p * ((s + 1.0) * acc + 2.0 * wacc) / (d * (1.0 - x))


def hurwitz_pair_sum(s: float, delta: float, x: float = 1.0) -> float:
    """x^-s [zeta(s, delta) + zeta(s, 1 - delta)] for s > 1, 0 < delta < 1.

    The even halves of the two table expansions, scaled by the nearest
    term (x delta)^-s: with delta <= 1/2, either

        (x delta)^-s * [1 + 2 delta^s sum_{k even} a_k delta^k]

    with the nearest term split off, or, around the symmetric point,

        (x delta)^-s * 2 delta^s sum_{k even} g_k v^k,   v = 1 - 2 delta.

    The first is used below delta = 1/3, where delta < v, and wherever
    the mirror terms (1-delta)^-s fall below 1e-18 of delta^-s, so that
    its sum ends at the first term; a large exponent then never needs
    the long series in v.  Forming the scale from the product x delta
    keeps the value finite and normal where x^-s underflows and delta^-s
    overflows.  Each sum stops relative to the whole value, the
    split-off nearest term included; SeriesError past the term limit.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if delta > 0.5:
        delta = 1.0 - delta
    t = _zeta_table(s)
    if delta < _PAIR_SPLIT or s * math.log1p((1.0 - 2.0 * delta) / delta) >= _LOG_STOP:
        r = _table_sum(t, t.a[0], delta ** s, delta * delta, 0.5)
        lead = 1.0
    else:
        v = 1.0 - 2.0 * delta
        r = _table_sum(t, t.g[0], delta ** s, v * v, 0.0)
        lead = 0.0
    if r is None:
        raise SeriesError(
            f"hurwitz_pair_sum({s!r}, {delta!r}) not converged by k = {_SERIES_MAX_K}")
    return (x * delta) ** -s * (lead + 2.0 * r[0])

