"""Series expansion of the chain energy in the dimerization amplitude.

Writing Delta = exp(eps), the two-periodic energy at fixed density is an
even function of eps and expands as

    E(A, eps) = E_eq(A) + E2(A) eps^2 + E4(A) eps^4 + E6(A) eps^6 + ...

The equidistant chain loses stability where E2 changes sign; with E4 > 0
there the transition is continuous and the new minimum grows like
eps ~ sqrt(-E2/(2 E4)).  For a single r^-s component the coefficients
close in terms of zeta(s+2), zeta(s+4), zeta(s+6):

    E2_c = s(s+1)(2^{s+2}-1) zeta(s+2) / (32 (2A)^s)
    E4_c = s(s+1)(s+2)(s+3)(2^{s+4}-1) zeta(s+4) / (3*2^11 (2A)^s) - E2_c/6
    E6_c = s..(s+5)(2^{s+6}-1) zeta(s+6) / (45*2^16 (2A)^s)
           - 23 E2_c/720 - E4_c/3

which follow from expanding the offset theta sum around the half-integer
lattice and using sum_j (j+1/2)^{-q} = 2(2^q-1) zeta(q).  The
heat-kernel quadrature of the same coefficients, an independent route,
lives in `quadrature`.

The sign change of E2 for the n-m potential happens at

    A_c = (1/2) [P(n)/P(m)]^(1/(n-m)),  P(x) = (1+x)(2^{2+x}-1) zeta(2+x)

the zero of the gap solver's residual at the symmetric point, which is
why transition computes it (_critical_A).  E4(A_c) > 0 for every pair
n > m exactly when

    quartic_margin_ratio(x) = (2^{2+x}-1) zeta(2+x)
                              / [(2+x)(3+x)(2^{4+x}-1) zeta(4+x)]

is strictly decreasing, which tricritical_scan verifies on a grid.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .potential import PotentialSpec, mie_potential
from .specfun import riemann_zeta, zeta_log_derivative
from .energy import equidistant_energy
from .transition import _critical_A

__all__ = [
    "LandauCoefficients",
    "TransitionPoint",
    "TricriticalScanReport",
    "landau_component_closed",
    "landau_closed",
    "E2_slope_closed",
    "critical_point",
    "critical_point_limit_n_to_m",
    "quartic_margin_ratio",
    "tricritical_scan",
]


class LandauCoefficients(namedtuple("LandauCoefficients",
                                     "A E_eq E2 E4 E6 method est_error")):
    __slots__ = ()

    def __new__(cls, A: float, E_eq: float, E2: float, E4: float, E6: float,
                method: str, est_error: float = 0.0):
        # est_error, quadrature only: summed |coefficient| * integrator error
        if method not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown method {method!r}")
        return super().__new__(cls, A, E_eq, E2, E4, E6, method, est_error)


class TransitionPoint(namedtuple("TransitionPoint",
                                 "A_c bracket sign_change_verified E4_at_Ac")):
    __slots__ = ()


class TricriticalScanReport(namedtuple("TricriticalScanReport", (
        "x_lo", "x_hi", "n_x", "monotone",
        "max_forward_diff",         # most positive forward difference of the ratio
        "pairs_checked", "all_E4_positive", "min_E4_at_Ac"))):
    __slots__ = ()


def _component_E2(s: float, A: float) -> float:
    return s * (s + 1.0) * (2.0 ** (s + 2.0) - 1.0) * riemann_zeta(s + 2.0) \
        / (32.0 * (2.0 * A) ** s)


def landau_component_closed(s: float, A: float) -> tuple[float, float, float]:
    """(E2, E4, E6) contributions of a bare r^-s term."""
    if not s > 1.0:
        raise ValueError("needs s > 1")
    if not A > 0.0:
        raise ValueError("A must be positive")
    e2 = _component_E2(s, A)
    e4 = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (2.0 ** (s + 4.0) - 1.0) \
        * riemann_zeta(s + 4.0) / (3.0 * 2.0 ** 11 * (2.0 * A) ** s) - e2 / 6.0
    h = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * (s + 5.0) \
        * (2.0 ** (s + 6.0) - 1.0) * riemann_zeta(s + 6.0) \
        / (45.0 * 2.0 ** 16 * (2.0 * A) ** s)
    return e2, e4, h - 23.0 / 720.0 * e2 - e4 / 3.0


def landau_closed(spec: PotentialSpec, A: float) -> LandauCoefficients:
    """Closed-form coefficients through sixth order."""
    e2 = e4 = e6 = 0.0
    for c in spec.components:
        a2, a4, a6 = landau_component_closed(c.exponent, A)
        e2 += c.coefficient * a2
        e4 += c.coefficient * a4
        e6 += c.coefficient * a6
    return LandauCoefficients(A, equidistant_energy(spec, A).value,
                              e2, e4, e6, "closed_form")


def E2_slope_closed(spec: PotentialSpec, A: float) -> float:
    """dE2/dA in closed form (each component scales as A^-s)."""
    acc = 0.0
    for c in spec.components:
        acc += c.coefficient * (-c.exponent / A) * _component_E2(c.exponent, A)
    return acc


def critical_point(spec: PotentialSpec) -> TransitionPoint:
    """Sign change of E2 for an n-m potential, in closed form.

    The bracket is A_c (1 -+ 1e-3); the sign change of the closed-form
    E2 across it is verified numerically, as is E4 there.
    """
    if spec.mie is None:
        raise ValueError("critical point is defined for n-m potentials")
    n, m = spec.mie
    A_c = _critical_A(n, m)
    lo = A_c * (1.0 - 1e-3)
    hi = A_c * (1.0 + 1e-3)
    f_lo = landau_closed(spec, lo).E2
    f_hi = landau_closed(spec, hi).E2
    verified = f_lo > 0.0 > f_hi
    e4 = landau_closed(spec, A_c).E4
    return TransitionPoint(A_c, (lo, hi), verified, e4)


def critical_point_limit_n_to_m(m: float) -> float:
    """n -> m limit of the E2 sign-change location.

    log A_c -> -log 2 + (log P)'(m), which collapses to
    log(2)/(2^{2+m}-1) + 1/(1+m) + zeta'(m+2)/zeta(m+2).
    """
    if not m > 1.0:
        raise ValueError("need m > 1")
    return math.exp(math.log(2.0) * 2.0 ** -(2.0 + m) / (1.0 - 2.0 ** -(2.0 + m))
                    + 1.0 / (1.0 + m) + zeta_log_derivative(m + 2.0))


def quartic_margin_ratio(x: float) -> float:
    """Ratio whose strict decrease certifies E4 > 0 at every crossing.

    At A_c the quartic coefficient of the pair (n, m) is positive exactly
    when this ratio is smaller at n than at m.

    It is strictly decreasing on all of x > -1, where both sums below
    converge.  With lam(s) = sum_{k odd} k^-s = (1 - 2^-s) zeta(s), the
    ratio is

        lam(x+2) / (4 (x+2)(x+3) lam(x+4)).

    1/((x+2)(x+3)) is positive and strictly decreasing.  So is
    lam(x+2)/lam(x+4): d/dx log lam(s) = -<log k>_s, the mean of log k
    over odd k with weights k^-s, so the derivative of its log is
    <log k>_{x+4} - <log k>_{x+2}.  That is negative because
    d/ds <log k>_s = -Var_s(log k) < 0.  tricritical_scan checks the
    decrease numerically as well.
    """
    if not x > 1.0:
        raise ValueError("need x > 1")
    return (2.0 ** (x + 2.0) - 1.0) * riemann_zeta(x + 2.0) / (
        (x + 2.0) * (x + 3.0) * (2.0 ** (x + 4.0) - 1.0) * riemann_zeta(x + 4.0))


def tricritical_scan(m_grid, n_grid) -> TricriticalScanReport:
    """Check the continuity certificate on grids of exponents.

    quartic_margin_ratio is evaluated on the union of the two grids and
    its forward differences must all be negative; for every pair
    (n, m) with n > m drawn from n_grid x m_grid the closed-form E4 at
    the crossing must be positive.
    """
    raw = sorted(set(float(v) for v in m_grid) | set(float(v) for v in n_grid))
    # merge points closer than the resolvable slope scale, otherwise the
    # strict-decrease test compares roundoff on ulp-separated abscissae
    xs: list[float] = []
    for x in raw:
        if not xs or x - xs[-1] > 1e-9 * max(1.0, x):
            xs.append(x)
    if len(xs) < 2:
        raise ValueError("need at least two distinct exponents")
    g = [quartic_margin_ratio(x) for x in xs]
    diffs = [g[i + 1] - g[i] for i in range(len(g) - 1)]
    max_diff = max(diffs)
    pairs = 0
    min_e4 = math.inf
    for m in map(float, m_grid):
        for n in map(float, n_grid):
            if not n > m:
                continue
            e4 = landau_closed(mie_potential(n, m), _critical_A(n, m)).E4
            pairs += 1
            min_e4 = min(min_e4, e4)
    return TricriticalScanReport(
        x_lo=xs[0], x_hi=xs[-1], n_x=len(xs),
        monotone=max_diff < 0.0, max_forward_diff=max_diff,
        pairs_checked=pairs,
        all_E4_positive=pairs > 0 and min_e4 > 0.0,
        min_E4_at_Ac=min_e4 if pairs else math.nan)
