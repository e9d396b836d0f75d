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
from functools import lru_cache, partial

from .potential import PotentialSpec, _require_mie
from .specfun import riemann_zeta
from .transition import (
    DeltaSolution, PowerLawFit, solve_delta, _critical_A, _error_estimate, _fit_grid,
    _log_stationarity, _newton, _pair_constants, _power_law_fit, _LOG2, _ROUNDOFF)

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
        _require_mie(params)
        if not 0.0 < sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        return super().__new__(cls, params, sigma)


class JunctionPoint(namedtuple("JunctionPoint", (
        "A_star", "Delta_star", "delta_star", "residual",
        "evals",                    # residual evaluations, bracket checks included
        "est_error"),               # how far Delta_star may lie from the root
        defaults=(0, 0.0))):
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
    # at delta = 1/2 the residual is solve_delta's c0 at A = sigma
    lg, lin = _pair_constants(n, m)[0], (n - m) * (lsig + _LOG2)
    hi = (lg + lin, -2.0 * (n - m), lg, lin)
    if not hi[0] <= 0.0:
        raise NoJunctionError(f"junction bracket failed for sigma={sigma!r}: "
                              f"f(0.5)={hi[0]:g}")
    f = partial(_log_stationarity, n, m, logb=lsig)    # decreasing in delta
    # the module docstring's first-order root, > 1e-16 for sigma > 1 + _EDGE_BAND
    d0 = min(0.5, ((n - m) * (sigma - 1.0) / (2.0 * (m + 1.0) * riemann_zeta(m + 2.0)))
             ** (1.0 / (m + 2.0)))
    d, r, other, evals = _newton(f, 1e-16, 0.5, hi, d0, f(d0) if d0 < 0.5 else hi)
    if d is None:
        raise NoJunctionError(f"junction bracket failed for sigma={sigma!r}: "
                              f"f(1e-16)={r[0]:g}")
    est = _error_estimate(abs(d - other), _ROUNDOFF * sum(map(abs, r[2:])), r[1], 1.0 / (d * d))
    return JunctionPoint(0.5 * sigma / d, 1.0 / d - 1.0, d, abs(r[0]), evals + (d0 < 0.5), est)


def junction(config: HardCoreConfig) -> JunctionPoint:
    """Junction of the unconstrained and boundary branches.

    Exists for 1 < sigma <= A_c; raises NoJunctionError otherwise.  The
    offset delta_star is the root in [1e-16, 1/2] of the stationarity
    residual with the short gap pinned to sigma, found in delta by
    solve_delta's Newton loop from the first-order delta_star of the
    module docstring; the residual at delta = 1/2 is solve_delta's c0 at
    A = sigma, with no evaluation.  It returns the end of the final
    bracket with a nonpositive residual, i.e. the delta_star at or just
    above the root; est_error is as solve_delta's, in Delta_star.  On
    the junction Delta_star = 2 A_star / sigma - 1 by construction.
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
    A_c = _critical_A(*config.params.mie)
    # for sigma <= A_c the core cannot bind up to the crossing, nor on
    # the free branch before the junction; solve_delta decides between
    # the symmetric and the dimerized branch
    if sigma <= 1.0 + _EDGE_BAND or (sigma <= A_c * (1.0 + _EDGE_BAND) and (
            A <= A_c or A < junction(config).A_star)):
        return solve_delta(config.params, A)
    # the boundary branch; for sigma above A_c it starts at A = sigma
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
    n, m = _require_mie(spec)
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
