"""Independent cross-checks: direct lattice sums and stencil derivatives.

These are deliberately dumb.  The direct summation knows nothing about
zeta functions, it just adds up inverse powers of actual interparticle
distances out to a planned cutoff and corrects each tail with the
midpoint Euler-Maclaurin formula, carrying a rigorous remainder bound.
The Richardson differentiator turns any black-box function into
derivative estimates with an error report.  Both are part of the public
API so downstream users can audit the closed forms the same way the
test suite does.
"""

from __future__ import annotations

import math

from .potential import PotentialSpec
from .energy import BipartiteChain, EnergyResult
from .specfun import riemann_zeta

__all__ = [
    "direct_bipartite_sum",
    "brute_force_energy",
    "richardson_derivative",
]

# midpoint Euler-Maclaurin weights -B_2k(1/2)/(2k)! of g^(2k-1) at
# k = 1, 2, 3; the third term is omitted and bounds the remainder
_EM1 = 1.0 / 24.0
_EM2 = -7.0 / 5760.0
_EM3 = 31.0 / 967680.0
_MIN_CELLS = 64


def _rising5(s: float) -> float:
    """The rising factorial (s)_5."""
    return s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0)


def _cutoff(s: float, target_rel: float) -> int:
    """Cells per side whose tail bound is below target_rel, at least 64.

    Each tail starts at least J cells out, where _midpoint_tail bounds it
    by _EM3 (s)_5 J^(-s-5) in units of (2A)^-s.  The three tails enter
    with total weight 2, and the value is at least zeta(s) in the same
    units (the same-sublattice sum alone).
    """
    scale = 2.0 * _EM3 * _rising5(s) / (riemann_zeta(s) * target_rel)
    return max(_MIN_CELLS, math.ceil(scale ** (1.0 / (s + 5.0))))


def _midpoint_tail(x0: float, s: float, step: float) -> tuple[float, float]:
    # sum_{j>J} g(j), g(t) = (step*t + off)^-s, by the midpoint
    # Euler-Maclaurin formula at t = J + 1/2, x0 = step*(J+1/2) + off:
    # the integral of g from there, + g'/24 - 7 g'''/5760, where
    # g^(k) = (-step)^k (s)_k x0^(-s-k).  g is completely monotone, so
    # the remainder is bounded by the first omitted term, 31|g^(5)|/967680
    p = x0 ** -s
    r = step / x0
    corr = p * (1.0 / (r * (s - 1.0)) - _EM1 * s * r
                - _EM2 * s * (s + 1.0) * (s + 2.0) * r ** 3)
    bound = _EM3 * _rising5(s) * r ** 5 * p
    return corr, bound


def direct_bipartite_sum(s: float, A: float, Delta: float,
                         target_rel: float = 1e-10,
                         J: int | None = None) -> EnergyResult:
    """Direct summation of the two-periodic chain energy for one r^-s term.

    Sums actual neighbor distances out to J cells on each side with
    math.fsum and corrects each of the three geometric tails with the
    midpoint Euler-Maclaurin formula through its third-derivative term.
    est_error is the rigorous bound on the remainders plus a roundoff
    floor of 4e-16 times the summed terms.  The default cutoff is the
    smallest J >= 64 whose bound is below target_rel relative to the
    value; it stays 64 for every s > 1 down to target_rel = 1e-12.
    Pass an integer J >= 1 to override it (for convergence studies).
    """
    if not target_rel >= 1e-12:
        raise ValueError("target_rel below 1e-12 is not reachable in doubles")
    if not s > 1.0:
        raise ValueError("needs s > 1")
    if J is not None and not (isinstance(J, int) and J >= 1):
        raise ValueError(f"J must be at least 1 and an integer, got {J!r}")
    chain = BipartiteChain(A, Delta)
    if J is None:
        J = _cutoff(s, target_rel)
    step = 2.0 * A
    c = step * chain.delta          # cross-sublattice offset within a cell
    if c > A:
        c = step - c                # roles of c and 2A-c are symmetric
    xs = [step * j for j in range(1, J + 1)]
    # same-sublattice pairs, both sublattices: weight 1 after the
    # half-per-particle bookkeeping
    s_same = math.fsum(x ** -s for x in xs)
    # cross-sublattice pairs at offsets +-c within each cell: weight 1/2
    s_right = math.fsum([c ** -s] + [(x + c) ** -s for x in xs])
    s_left = math.fsum((x - c) ** -s for x in xs)
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
