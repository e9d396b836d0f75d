"""Dimerization under a hard-core diameter constraint.

Adding a hard core of radius sigma to the n-m potential restricts the
two-periodic chain to min(a, b) >= sigma, i.e. Delta <= 2A/sigma - 1.
Three regimes emerge:

  * sigma <= 1: the constraint never binds (the unconstrained optimum
    always keeps gaps above 1 > sigma), nothing changes.
  * 1 < sigma <= A_c: the unconstrained branch is followed from the
    crossing up to a junction spacing A_star where the growing optimal
    Delta hits the constraint; beyond it the minimizer rides the
    boundary Delta = 2A/sigma - 1.
  * sigma > A_c: the symmetric chain is already squeezed at onset and
    the boundary branch starts right at A = sigma.

The junction condition replaces 2A by sigma/delta in the stationarity
equation (on the boundary the short gap is pinned to sigma), giving a
single equation for delta_star alone: the residual of transition with
log b = log sigma.  Its solution behaves like

    delta_star ~ [ (n-m)(sigma-1) / (2 (m+1) zeta(m+2)) ]^{1/(m+2)}

as sigma -> 1, so A_star = sigma/(2 delta_star) diverges with the
non-universal exponent -1/(m+2); fit_tau measures it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .potential import PotentialSpec
from .landau import _critical_A
from .specfun import riemann_zeta
from .transition import (
    DeltaSolution,
    PowerLawFit,
    solve_delta,
    _fit_grid,
    _log_stationarity,
    _power_law_fit,
    _zeroin,
)

__all__ = [
    "HardCoreConfig",
    "JunctionPoint",
    "InfeasibleError",
    "NoJunctionError",
    "junction",
    "constrained_delta",
    "hardcore_sweep",
    "tau_theory_prefactor",
    "fit_tau",
]

_EDGE_BAND = 1e-14              # regime edges resolved toward the lower regime
_JUNCTION_MAXSIZE = 1024        # cached junctions (n, m, sigma)


class InfeasibleError(ValueError):
    """No chain of the requested density fits outside the hard core."""


class NoJunctionError(ValueError):
    """Junction point requested outside the regime where one exists."""


class HardCoreConfig(namedtuple("HardCoreConfig", "params sigma")):
    """An n-m potential together with the hard-core radius to enforce."""
    __slots__ = ()

    def __new__(cls, params: PotentialSpec, sigma: float):
        if params.mie is None:
            raise ValueError("hard-core analysis requires an n-m potential")
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        return super().__new__(cls, params, sigma)


class JunctionPoint(namedtuple("JunctionPoint", (
        "A_star", "Delta_star", "delta_star", "residual",
        "evals"),                   # residual evaluations, bracket checks included
        defaults=(0,))):
    """Where the unconstrained optimum meets the boundary branch."""
    __slots__ = ()


@lru_cache(maxsize=_JUNCTION_MAXSIZE)
def _junction_cached(n: float, m: float, sigma: float) -> JunctionPoint:
    A_c = _critical_A(n, m)
    if not sigma > 1.0 + _EDGE_BAND:
        raise NoJunctionError("no junction for sigma <= 1 (constraint never binds)")
    if sigma > A_c * (1.0 + _EDGE_BAND):
        raise NoJunctionError("no junction for sigma > A_c (boundary from onset)")
    # log(sigma) through log1p keeps full precision for sigma = 1 + tiny
    lsig = math.log1p(sigma - 1.0)

    def f(d):
        # decreasing in d, positive as d -> 0+, nonpositive at d = 1/2
        # when sigma <= A_c
        return _log_stationarity(n, m, d, lsig)[0]

    lo, hi = 1e-16, 0.5
    f_lo = f(lo)
    f_hi = f(hi)
    if not (f_lo > 0.0 >= f_hi):
        raise NoJunctionError(
            f"junction bracket failed for sigma={sigma!r}: "
            f"f({lo:g})={f_lo:g}, f(0.5)={f_hi:g}")
    d, f_d, evals = _zeroin(f, lo, hi, f_lo, f_hi)
    A_star = 0.5 * sigma / d
    return JunctionPoint(A_star, 1.0 / d - 1.0, d, abs(f_d), evals + 2)


def junction(config: HardCoreConfig) -> JunctionPoint:
    """Junction of the unconstrained and boundary branches.

    Exists for 1 < sigma <= A_c; raises NoJunctionError otherwise.  The
    offset delta_star is the root in [1e-16, 1/2] of the stationarity
    residual with the short gap pinned to sigma, found by the same
    Brent solver as solve_delta: it stops on an exactly zero residual or
    a one-ulp bracket and returns the end with a nonpositive residual,
    i.e. the delta_star at or just above the root.  On the junction
    Delta_star = 2 A_star / sigma - 1 by construction.
    """
    n, m = config.params.mie
    return _junction_cached(n, m, config.sigma)


def constrained_delta(config: HardCoreConfig, A: float) -> DeltaSolution:
    """Optimal gap ratio subject to the hard-core feasibility bound.

    Raises InfeasibleError when even the symmetric chain cannot fit
    (A < sigma).  branch is `boundary` wherever the constraint is
    active.
    """
    if not 0.0 < A < math.inf:
        raise ValueError("A must be positive and finite")
    sigma = config.sigma
    if A < sigma * (1.0 - _EDGE_BAND):
        raise InfeasibleError(
            f"A={A!r} below hard-core radius {sigma!r}: no feasible chain")
    n, m = config.params.mie
    A_c = _critical_A(n, m)
    if sigma <= 1.0 + _EDGE_BAND:
        return solve_delta(config.params, A)
    if sigma <= A_c * (1.0 + _EDGE_BAND):
        # up to the crossing the core cannot bind; solve_delta decides
        # between the symmetric and the dimerized branch
        if A <= A_c or A < junction(config).A_star:
            return solve_delta(config.params, A)
        Delta = 2.0 * A / sigma - 1.0
        return DeltaSolution(A, Delta, 0.0, "boundary")
    # sigma above A_c: boundary branch directly from A = sigma
    Delta = 2.0 * A / sigma - 1.0
    if Delta <= 1.0:
        return DeltaSolution(A, 1.0, 0.0, "trivial")
    return DeltaSolution(A, Delta, 0.0, "boundary")


def hardcore_sweep(config: HardCoreConfig, A_grid) -> list[DeltaSolution]:
    """constrained_delta across a grid of spacings."""
    return [constrained_delta(config, float(A)) for A in A_grid]


def tau_theory_prefactor(spec: PotentialSpec) -> float:
    """Amplitude of A_star ~ C (sigma-1)^{-1/(m+2)} as sigma -> 1.

    From the leading term of the junction condition,
    C = (1/2) [2 (m+1) zeta(m+2) / (n-m)]^{1/(m+2)}.
    """
    if spec.mie is None:
        raise ValueError("requires an n-m potential")
    n, m = spec.mie
    return 0.5 * (2.0 * (m + 1.0) * riemann_zeta(m + 2.0)
                  / (n - m)) ** (1.0 / (m + 2.0))


def fit_tau(spec: PotentialSpec, window: tuple[float, float] = (1e-12, 1e-9),
            n_points: int = 12) -> PowerLawFit:
    """Power-law fit of the junction spacing against sigma - 1.

    Measures the non-universal divergence exponent -1/(m+2); the pinned
    amplitude is the robust estimate to compare against
    tau_theory_prefactor.  The fit's junctions are the JunctionPoints
    solved, one per point.
    """
    xs = _fit_grid(window, n_points)
    amp = tau_theory_prefactor(spec)        # raises unless spec is n-m
    jps = tuple(junction(HardCoreConfig(spec, 1.0 + x)) for x in xs)
    return _power_law_fit(xs, [jp.A_star for jp in jps], window,
                          -1.0 / (spec.mie[1] + 2.0), amp, jps)
