"""Independent cross-checks: direct lattice sums and stencil derivatives.

These are deliberately dumb.  The direct summation knows nothing about
zeta functions, it just adds up inverse powers of actual interparticle
distances out to a planned cutoff and corrects the tail with a midpoint
integral, carrying a rigorous remainder bound.  The Richardson
differentiator turns any black-box function into derivative estimates
with an error report.  Both are part of the public API so downstream
users can audit the closed forms the same way the test suite does.
"""

from __future__ import annotations

import math

import numpy as np

from .potential import PotentialSpec
from .energy import BipartiteChain, EnergyResult
from .specfun import riemann_zeta

__all__ = [
    "direct_bipartite_sum",
    "brute_force_energy",
    "richardson_derivative",
]


def _midpoint_tail(x0: float, s: float, step: float) -> tuple[float, float]:
    # integral correction for sum_{j>J} f(j), f(j) = (step*j + off)^-s
    # evaluated at x0 = step*(J+1/2) + off, plus the rigorous remainder
    # bound (1/24) int |f''| = (1/24) |f'(J+1/2)|
    corr = x0 ** (1.0 - s) / (step * (s - 1.0))
    bound = s * step * x0 ** (-s - 1.0) / 24.0
    return corr, bound


def direct_bipartite_sum(s: float, A: float, Delta: float,
                         target_rel: float = 1e-10,
                         J: int | None = None) -> EnergyResult:
    """Direct summation of the two-periodic chain energy for one r^-s term.

    Sums actual neighbor distances out to J cells on each side and
    corrects each of the four geometric subsums with a midpoint integral.
    est_error is the rigorous tail-remainder bound plus a roundoff floor.
    The remainder after the integral correction is roughly s/(24 J)
    times the last kept term, so the default cutoff, at least 64 and
    J ~ (2 zeta(s) target_rel)^(-1/s), lands far below target_rel.
    Pass J to override it (for convergence studies).
    """
    if not target_rel >= 1e-12:
        raise ValueError("target_rel below 1e-12 is not reachable in doubles")
    if not s > 1.0:
        raise ValueError("needs s > 1")
    chain = BipartiteChain(A, Delta)
    if J is None:
        J = max(64, int((2.0 * riemann_zeta(s) * target_rel) ** (-1.0 / s)) + 1)
    step = 2.0 * A
    c = step * chain.delta          # cross-sublattice offset within a cell
    if c > A:
        c = step - c                # roles of c and 2A-c are symmetric
    j = np.arange(1, J + 1, dtype=float)
    x = step * j
    # same-sublattice pairs, both sublattices: weight 1 after the
    # half-per-particle bookkeeping
    s_same = float(np.sum(x ** -s))
    # cross-sublattice pairs at offsets +-c within each cell: weight 1/2
    s_right = c ** -s + float(np.sum((x + c) ** -s))
    s_left = float(np.sum((np.abs(x - c)) ** -s))
    x_mid = step * (J + 0.5)
    t0, b0 = _midpoint_tail(x_mid, s, step)
    t1, b1 = _midpoint_tail(x_mid + c, s, step)
    t2, b2 = _midpoint_tail(x_mid - c, s, step)
    value = (s_same + t0) + 0.5 * ((s_right + t1) + (s_left + t2))
    bound = b0 + 0.5 * (b1 + b2)
    floor = 4e-16 * (s_same + 0.5 * (s_right + s_left))
    return EnergyResult(value, "brute_force", bound + floor)


def brute_force_energy(spec: PotentialSpec, A: float, Delta: float,
                       target_rel: float = 1e-10) -> EnergyResult:
    """Direct-summation energy for a full potential spec."""
    chain = BipartiteChain(A, Delta)
    if spec.sigma is not None and chain.min_gap < spec.sigma:
        return EnergyResult(math.inf, "brute_force", 0.0)
    acc = 0.0
    err = 0.0
    for comp in spec.components:
        r = direct_bipartite_sum(comp.exponent, A, Delta, target_rel)
        acc += comp.coefficient * r.value
        err += abs(comp.coefficient) * r.est_error
    return EnergyResult(acc, "brute_force", err)


# central difference stencils: offsets, weights, divisor multiplier for
# h^order (2.0 means divide by 2 h^order)
_CENTRAL = {
    1: ((1, -1), (1.0, -1.0), 2.0),
    2: ((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
    3: ((2, 1, -1, -2), (1.0, -2.0, 2.0, -1.0), 2.0),
    4: ((2, 1, 0, -1, -2), (1.0, -4.0, 6.0, -4.0, 1.0), 1.0),
    5: ((3, 2, 1, -1, -2, -3), (1.0, -4.0, 5.0, -5.0, 4.0, -1.0), 2.0),
    6: ((3, 2, 1, 0, -1, -2, -3), (1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0), 1.0),
}


def richardson_derivative(fn, x0: float, order: int,
                          h0: float = 1e-2, levels: int = 5) -> tuple[float, float]:
    """Derivative of fn at x0 by Richardson-extrapolated central stencils.

    Orders 1 through 6.  Builds the stencil value at steps h0, h0/2, ...
    and extrapolates in powers of h^2, keeping the tableau entry with
    the smallest neighbor discrepancy (same bookkeeping as the classic
    dfridr routine).  Returns (value, est_error).
    """
    if order not in _CENTRAL:
        raise ValueError("order must be an integer in 1..6")
    if not h0 > 0.0:
        raise ValueError("h0 must be positive")
    if levels < 2:
        raise ValueError("need at least 2 levels")
    offsets, weights, halver = _CENTRAL[order]

    def stencil(h: float) -> float:
        acc = 0.0
        for o, w in zip(offsets, weights):
            v = fn(x0 + o * h)
            if not math.isfinite(v):
                raise ValueError(f"fn returned non-finite value at {x0 + o * h}")
            acc += w * v
        return acc / (halver * h ** order)

    col = [stencil(h0 / 2.0 ** i) for i in range(levels)]
    best = col[-1]
    best_err = math.inf
    for j in range(1, levels):
        fac = 4.0 ** j
        nxt = []
        for k in range(len(col) - 1):
            t = (fac * col[k + 1] - col[k]) / (fac - 1.0)
            e = max(abs(t - col[k + 1]), abs(t - col[k]))
            if e <= best_err:
                best_err = e
                best = t
            nxt.append(t)
        col = nxt
    return best, best_err
