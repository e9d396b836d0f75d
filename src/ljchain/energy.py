"""Ground-state energy per particle of periodic chains.

Two configurations are considered.  The equidistant chain has spacing A
(unit density after rescaling by the particle spacing).  The two-periodic
chain keeps the same density but alternates gaps a and b with

    a = 2 A Delta / (1 + Delta),   b = 2 A / (1 + Delta),

so Delta = a/b measures the dimerization and Delta = 1 recovers the
equidistant case.  For a potential sum_k c_k r^{-s_k} the energy per
particle reduces to Hurwitz zeta combinations: with delta = 1/(1+Delta),

    lattice_sum(s) = (2A)^{-s} [zeta(s) + (zeta(s,delta) + zeta(s,1-delta))/2]

and the equidistant value is sum_k c_k zeta(s_k) A^{-s_k}.  The
heat-kernel route to the same energies lives in `quadrature`, which
only the checks load.  energy_curve assembles the ground-state energy
against spacing from these closed forms and solve_delta's gap ratio.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .potential import PotentialSpec
from .specfun import hurwitz_pair_sum, riemann_zeta
from .transition import solve_delta

__all__ = [
    "BipartiteChain",
    "EnergyResult",
    "EnergyCurveRow",
    "riesz_lattice_sum",
    "equidistant_energy",
    "bipartite_energy",
    "find_A_min",
    "energy_curve",
]

# closed forms are pure zeta arithmetic; this is the honest scale of
# their roundoff, used for est_error bookkeeping
_CLOSED_REL = 1e-13
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BipartiteChain(namedtuple("BipartiteChain", "A Delta")):
    """Two-periodic chain geometry at half-spacing A and gap ratio Delta."""
    __slots__ = ()

    def __new__(cls, A: float, Delta: float):
        if not 0.0 < A < math.inf:
            raise ValueError("A must be positive and finite")
        if not 0.0 < Delta < math.inf:
            raise ValueError("Delta must be positive and finite")
        return super().__new__(cls, A, Delta)

    @property
    def a(self) -> float:
        return 2.0 * self.A * self.Delta / (1.0 + self.Delta)

    @property
    def b(self) -> float:
        return 2.0 * self.A / (1.0 + self.Delta)

    @property
    def delta(self) -> float:
        return 1.0 / (1.0 + self.Delta)

    @property
    def eps(self) -> float:
        return math.log(self.Delta)

    @property
    def min_gap(self) -> float:
        return min(self.a, self.b)


class EnergyResult(namedtuple("EnergyResult", "value method est_error")):
    __slots__ = ()

    def __new__(cls, value: float, method: str, est_error: float):
        # method: closed_form | quadrature | brute_force
        if method not in ("closed_form", "quadrature", "brute_force"):
            raise ValueError(f"unknown method {method!r}")
        if est_error < 0.0:
            raise ValueError("est_error must be nonnegative")
        return super().__new__(cls, value, method, est_error)


class EnergyCurveRow(namedtuple("EnergyCurveRow", (
        "A", "E_ground", "E_equidistant_continuation",
        "phase",                    # equidistant | bipartite
        "Delta"))):
    __slots__ = ()


def _canonical_gap_ratio(Delta: float) -> float:
    # energies are invariant under Delta -> 1/Delta (relabeling the two
    # gaps); canonicalizing makes that exact in floating point
    if not Delta > 0.0:
        raise ValueError("Delta must be positive")
    return Delta if Delta >= 1.0 else 1.0 / Delta


def riesz_lattice_sum(s: float, A: float, Delta: float) -> float:
    """Energy per particle of the two-periodic chain for a bare r^-s term.

    (2A)^-s zeta(s) plus half of the pair sum of the two offsets,
    hurwitz_pair_sum(s, delta, 2A) with delta = 1/(1+Delta): an even
    series of the zeta table of s.  For a strongly dimerized chain the
    nearest-neighbour term is formed from the short gap b = 2A delta
    itself, so the sum stays finite where (2A)^-s underflows and
    delta^-s overflows.
    """
    if not s > 1.0:
        raise ValueError("needs s > 1")
    if not A > 0.0:
        raise ValueError("A must be positive")
    d = _canonical_gap_ratio(Delta)
    two_a = 2.0 * A
    return two_a ** -s * riemann_zeta(s) \
        + 0.5 * hurwitz_pair_sum(s, 1.0 / (1.0 + d), two_a)


def _hard_core_blocked(spec: PotentialSpec, gap: float) -> bool:
    return spec.sigma is not None and gap < spec.sigma


def equidistant_energy(spec: PotentialSpec, A: float) -> EnergyResult:
    """Closed-form energy per particle of the equidistant chain."""
    if not A > 0.0:
        raise ValueError("A must be positive")
    if _hard_core_blocked(spec, A):
        return EnergyResult(math.inf, "closed_form", 0.0)
    acc = 0.0
    mag = 0.0
    for c in spec.components:
        term = c.coefficient * riemann_zeta(c.exponent) * A ** -c.exponent
        acc += term
        mag += abs(term)
    return EnergyResult(acc, "closed_form", _CLOSED_REL * mag)


def bipartite_energy(spec: PotentialSpec, A: float, Delta: float) -> EnergyResult:
    """Closed-form energy per particle of the two-periodic chain."""
    chain = BipartiteChain(A, Delta)
    if _hard_core_blocked(spec, chain.min_gap):
        return EnergyResult(math.inf, "closed_form", 0.0)
    acc = 0.0
    mag = 0.0
    for c in spec.components:
        term = c.coefficient * riesz_lattice_sum(c.exponent, A, Delta)
        acc += term
        mag += abs(term)
    return EnergyResult(acc, "closed_form", _CLOSED_REL * mag)


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimizer of f on [lo, hi], to a bracket of width tol."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = f(x1)
    f2 = f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def find_A_min(spec: PotentialSpec) -> tuple[float, float]:
    """Location and value of the equidistant energy minimum over A.

    For the n-m potential the location is (zeta(n)/zeta(m))^(1/(n-m)),
    evaluated in closed form.  Generic multi-component specs fall back
    to a golden-section search of the closed-form energy on [0.5, 3],
    which raises ValueError when it ends at an edge of that interval:
    the energy has no minimum inside it.
    """
    if spec.mie is not None:
        n, m = spec.mie
        A_min = (riemann_zeta(n) / riemann_zeta(m)) ** (1.0 / (n - m))
    else:
        lo, hi, tol = 0.5, 3.0, 1e-12
        A_min = _golden_section(lambda A: equidistant_energy(spec, A).value, lo, hi, tol)
        if not lo + tol < A_min < hi - tol:
            raise ValueError(f"no equidistant minimum inside [{lo:g}, {hi:g}]: "
                             f"the search ends at A={A_min!r}")
    return A_min, equidistant_energy(spec, A_min).value


def energy_curve(spec: PotentialSpec, A_grid) -> list[EnergyCurveRow]:
    """Ground-state energy against spacing, with the symmetric branch
    carried along for comparison."""
    rows = []
    for A in A_grid:
        A = float(A)
        sol = solve_delta(spec, A)
        eq = equidistant_energy(spec, A).value
        if sol.branch == "trivial":
            ground = eq
            phase = "equidistant"
        else:
            ground = bipartite_energy(spec, A, sol.Delta).value
            phase = "bipartite"
        rows.append(EnergyCurveRow(A, ground, eq, phase, sol.Delta))
    return rows
