"""Reference series shared by the tests.

Summed term by term, independently of the per-exponent tables of
ljchain.specfun, so the library is never compared against itself.
"""

from ljchain.specfun import SeriesError, riemann_zeta


def reference_half_point_odd_series(s, u):
    """S_s(u) = sum_{k odd} u^{k-1} (s)_k zeta(s+k, 1/2) / k!, so that
    zeta(s, 1/2 - u) - zeta(s, 1/2 + u) = 2 u S_s(u).

    The per-term odd series that the table sums replaced, kept verbatim
    (term limit and all).
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
        if k > 600:
            raise SeriesError("reference not converged")
        coef *= (s + k) * (s + k + 1.0) * u2 / ((k + 1.0) * (k + 2.0))
        k += 2


def reference_small_gap_odd_series(s, d):
    """V_s(d) = zeta(s, 1-d) - zeta(s, 1+d) = 2 sum_{k odd} d^k (s)_k
    zeta(s+k) / k! for 0 < d < 1, per term as the table sums replaced
    it (term limit and all)."""
    k = 1
    coef = 2.0 * s * d
    d2 = d * d
    acc = 0.0
    while True:
        term = coef * riemann_zeta(s + k)
        acc += term
        if term <= 1e-18 * acc:
            return acc
        if k > 600:
            raise SeriesError("reference not converged")
        coef *= (s + k) * (s + k + 1.0) * d2 / ((k + 1.0) * (k + 2.0))
        k += 2
