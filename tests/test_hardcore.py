"""Tests for the hard-core constrained solver and the junction analysis."""

import math
import statistics

import mpmath
import numpy as np
import pytest

from ljchain import hardcore
from ljchain.energy import bipartite_energy, BipartiteChain
from ljchain.landau import critical_point
from ljchain.potential import mie_potential, PotentialSpec
from ljchain.hardcore import (
    HardCoreConfig,
    JunctionPoint,
    InfeasibleError,
    NoJunctionError,
    junction,
    constrained_delta,
    hardcore_sweep,
    tau_theory_prefactor,
    fit_tau,
)
from ljchain.transition import _geomspace, _log_stationarity, solve_delta
from evalcounts import JUNCTION_WINDOWS, junction_evals, junction_grid
from references import reference_half_point_odd_series, reference_small_gap_odd_series

SPEC = mie_potential(12, 6)
A_C = critical_point(SPEC).A_c


# ----------------------------------------------------- bisection reference
# The junction residual and the full-precision bisection that junction
# used before it switched to Brent's method, kept verbatim as the
# reference the new solver must reproduce.

def _reference_junction_residual(n, m, lsig, d):
    if d >= 0.25:
        u = 0.5 - d
        return math.log(reference_half_point_odd_series(m + 1.0, u)
                        / reference_half_point_odd_series(n + 1.0, u)) \
            - (m - n) * (lsig - math.log(d))
    vm = reference_small_gap_odd_series(m + 1.0, d)
    vn = reference_small_gap_odd_series(n + 1.0, d)
    return (math.log1p(-d ** (m + 1.0) * vm)
            - math.log1p(-d ** (n + 1.0) * vn)
            + (n - m) * lsig)


def reference_delta_star(n, m, sigma):
    """delta_star by bisection to adjacent floats, None where the
    bracket fails."""
    n, m = float(n), float(m)
    lsig = math.log1p(sigma - 1.0)
    lo, hi = 1e-16, 0.5
    f_lo = _reference_junction_residual(n, m, lsig, lo)
    f_hi = _reference_junction_residual(n, m, lsig, hi)
    if not (f_lo > 0.0 >= f_hi):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _reference_junction_residual(n, m, lsig, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def cfg(sigma, n=12, m=6):
    return HardCoreConfig(mie_potential(n, m, sigma=sigma), sigma)


# -------------------------------------------------------------------- regimes

def test_small_core_never_binds():
    # sigma below the natural gaps: identical to the unconstrained run
    config = cfg(0.8)
    for A in (1.0, 1.2, 2.0, 10.0):
        a = constrained_delta(config, A)
        b = solve_delta(SPEC, A)
        assert a == b


def test_infeasible_density():
    config = cfg(1.3)
    with pytest.raises(InfeasibleError):
        constrained_delta(config, 1.2)
    with pytest.raises(ValueError):
        constrained_delta(config, 0.0)


@pytest.mark.parametrize("sigma", [1.05, 1.3])
@pytest.mark.parametrize("A", [math.inf, math.nan])
def test_constrained_delta_rejects_non_finite_A(sigma, A):
    # sigma below and above A_c take different branches
    with pytest.raises(ValueError, match="finite"):
        constrained_delta(cfg(sigma), A)


def test_intermediate_core_three_phases():
    sigma = 1.1
    config = cfg(sigma)
    jp = junction(config)
    assert A_C < jp.A_star
    # between the packing limit and the crossing: symmetric
    sol = constrained_delta(config, 1.105)
    assert sol.branch == "trivial"
    # between crossing and junction: the unconstrained optimum
    mid = 0.5 * (A_C + jp.A_star)
    sol = constrained_delta(config, mid)
    assert sol.branch == "bipartite"
    assert sol == solve_delta(SPEC, mid)
    # beyond the junction: pinned to the boundary
    sol = constrained_delta(config, jp.A_star * 1.5)
    assert sol.branch == "boundary"
    assert sol.Delta == pytest.approx(2.0 * sol.A / sigma - 1.0, rel=1e-15)


def test_boundary_keeps_short_gap_at_sigma():
    sigma = 1.1
    config = cfg(sigma)
    jp = junction(config)
    for A in (jp.A_star * 1.2, jp.A_star * 3.0):
        sol = constrained_delta(config, A)
        chain = BipartiteChain(sol.A, sol.Delta)
        assert chain.min_gap == pytest.approx(sigma, rel=1e-13)


def test_large_core_boundary_from_onset():
    sigma = 1.3            # above A_c = 1.1087
    config = cfg(sigma)
    sol = constrained_delta(config, 1.35)
    assert sol.branch == "boundary"
    assert sol.Delta == pytest.approx(2.0 * 1.35 / sigma - 1.0, rel=1e-15)
    # right at the packing limit the chain is symmetric
    sol = constrained_delta(config, sigma)
    assert sol.branch == "trivial"
    assert sol.Delta == 1.0


def test_feasibility_everywhere():
    for sigma in (1.05, 1.1, 1.3):
        config = cfg(sigma)
        for A in np.linspace(sigma, 4.0, 25):
            sol = constrained_delta(config, float(A))
            chain = BipartiteChain(sol.A, sol.Delta)
            assert chain.min_gap >= sigma * (1.0 - 1e-12)


# ------------------------------------------------------------------- junction

def test_junction_reference_point():
    # frozen from an independent run of the full constrained minimizer
    jp = junction(cfg(1.1))
    assert jp.A_star == pytest.approx(1.1089303519977154, rel=1e-10)
    assert jp.Delta_star == pytest.approx(1.0162370036322095, rel=1e-10)
    assert jp.residual < 1e-11


def test_junction_self_consistency():
    for sigma in (1.01, 1.05, 1.1):
        jp = junction(cfg(sigma))
        # the junction sits on the boundary line by construction
        assert jp.Delta_star == pytest.approx(
            2.0 * jp.A_star / sigma - 1.0, rel=1e-12)
        assert jp.delta_star == pytest.approx(
            1.0 / (1.0 + jp.Delta_star), rel=1e-14)
        # and on the unconstrained branch: the free solver at A_star
        # returns the same gap ratio
        free = solve_delta(SPEC, jp.A_star)
        assert free.Delta == pytest.approx(jp.Delta_star, rel=1e-9)


def test_junction_approaches_crossing_as_core_grows():
    # as sigma -> A_c the junction collapses onto the crossing,
    # quadratically in the remaining gap
    for sigma, tol in [(1.10, 1e-3), (1.108, 1e-5), (1.1086, 1e-7)]:
        jp = junction(cfg(sigma))
        assert jp.A_star == pytest.approx(A_C, rel=tol)
        assert jp.Delta_star > 1.0


def test_junction_asymptotic_offset_for_thin_core():
    # delta_star ~ [ (n-m)(sigma-1) / (2 (m+1) zeta(m+2)) ]^{1/(m+2)}
    from ljchain.specfun import riemann_zeta
    eps = 1e-8
    jp = junction(cfg(1.0 + eps))
    want = ((12.0 - 6.0) * eps
            / (2.0 * 7.0 * riemann_zeta(8.0))) ** (1.0 / 8.0)
    assert jp.delta_star == pytest.approx(want, rel=0.02)


JUNCTION_SIGMAS = [1.0 + float(x) for x in np.geomspace(1e-12, 1e-9, 12)] \
    + [1.01, 1.05, 1.1, 1.108, 1.1086]


@pytest.mark.parametrize("n,m", [(12, 6), (7, 6), (8, 6), (6, 2), (6, 3)])
def test_junction_matches_bisection_reference(n, m):
    spec = mie_potential(n, m)
    A_c = critical_point(spec).A_c
    compared = 0
    for sigma in JUNCTION_SIGMAS:
        want = reference_delta_star(n, m, sigma)
        if want is None or sigma > A_c:
            continue
        jp = junction(HardCoreConfig(spec, sigma))
        assert jp.delta_star == pytest.approx(want, rel=1e-12, abs=0.0)
        assert jp.residual < 1e-11
        assert 0 < jp.evals <= 40
        compared += 1
    assert compared >= 12


@pytest.mark.parametrize("pair,window", JUNCTION_WINDOWS)
def test_junction_evaluation_counts(pair, window):
    # Newton from the first-order delta_star; the bracket [1e-16, 1/2]
    # searched by Brent's method took medians of 20, 20, 19 and 28
    evals = junction_evals(*pair, junction_grid(*window))
    assert statistics.median(evals) <= 10


def test_junction_takes_its_symmetric_end_without_an_evaluation(monkeypatch):
    # the residual at delta = 1/2 is solve_delta's c0 at A = sigma, so no
    # junction evaluates it there; every root below lies at u > 1e-6
    us = []

    def counted(n, m, delta, logb):
        us.append(0.5 - delta)
        return real(n, m, delta, logb)

    real = hardcore._log_stationarity
    monkeypatch.setattr(hardcore, "_log_stationarity", counted)
    for n, m in [(12, 6), (7, 6), (8, 6), (6, 2), (6, 3)]:
        A_c = critical_point(mie_potential(n, m)).A_c
        for sigma in (1.0 + 1e-9, 1.01, 1.05, 1.0 + 0.5 * (A_c - 1.0), A_c * (1.0 - 1e-8)):
            del us[:]
            hardcore._junction_cached.cache_clear()
            jp = junction(HardCoreConfig(mie_potential(n, m), sigma))
            assert jp.evals == len(us) > 0
            assert min(us) > 1e-9, (n, m, sigma)


def _mp_junction_residual(n, m, lsig, d):
    """The junction residual in mpmath."""
    def log_d(s):
        return mpmath.log(mpmath.zeta(s, d) - mpmath.zeta(s, 1 - d))
    return log_d(m + 1) - log_d(n + 1) + (n - m) * (lsig - mpmath.log(d))


@pytest.mark.parametrize("delta", [0.1, 0.45])
def test_junction_slope_against_mpmath(delta):
    # the junction solves in delta with log b = log sigma held fixed
    n, m, lsig = 12.0, 6.0, math.log1p(1e-6)
    f, slope = _log_stationarity(n, m, delta, lsig)[:2]
    with mpmath.workdps(50):
        def residual(d):
            return _mp_junction_residual(n, m, lsig, d)
        assert f == pytest.approx(float(residual(mpmath.mpf(delta))), rel=1e-12)
        want = float(mpmath.diff(residual, mpmath.mpf(delta)))
    assert slope == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("sigma", [1.0 + 1e-9, 1.01, 1.1])
def test_junction_error_estimate_covers_the_miss(sigma):
    jp = junction(cfg(sigma))
    lsig = math.log1p(sigma - 1.0)
    with mpmath.workdps(50):
        d = mpmath.findroot(lambda d: _mp_junction_residual(12, 6, lsig, d),
                            mpmath.mpf(jp.delta_star))
        Delta = 1 / d - 1
    assert 0.0 < jp.est_error < 1e-10 * jp.Delta_star
    assert abs(jp.Delta_star - Delta) <= jp.est_error


def test_close_pair_junction_is_root_within_roundoff():
    # for (100,99) the junction residual falls by only ~1e-10 per unit of
    # delta at sigma - 1 <= 1e-9, so roundoff leaves delta_star uncertain
    # at the 1e-6 level: check that both answers are roots of the
    # computed residual
    spec = mie_potential(100, 99)
    for sigma in JUNCTION_SIGMAS[:12]:
        jp = junction(HardCoreConfig(spec, sigma))
        want = reference_delta_star(100, 99, sigma)
        lsig = math.log1p(sigma - 1.0)
        assert jp.residual <= 1e-15
        assert abs(_reference_junction_residual(100.0, 99.0, lsig, want)) <= 1e-15
        assert 0 < jp.evals <= 40


def test_junction_regime_errors():
    with pytest.raises(NoJunctionError):
        junction(cfg(0.9))
    with pytest.raises(NoJunctionError):
        junction(cfg(1.0))
    with pytest.raises(NoJunctionError):
        junction(cfg(1.2))           # above A_c


def test_config_validation():
    with pytest.raises(ValueError):
        HardCoreConfig(PotentialSpec(SPEC.components), 1.1)
    with pytest.raises(ValueError):
        HardCoreConfig(SPEC, 0.0)


# ------------------------------------------------------------------ continuity

def test_continuity_across_junction():
    config = cfg(1.1)
    jp = junction(config)
    below = constrained_delta(config, jp.A_star * (1.0 - 1e-9))
    above = constrained_delta(config, jp.A_star * (1.0 + 1e-9))
    assert below.branch == "bipartite"
    assert above.branch == "boundary"
    assert above.Delta == pytest.approx(below.Delta, abs=1e-7)


def test_continuity_across_crossing_with_core():
    config = cfg(1.05)
    below = constrained_delta(config, A_C * (1.0 - 1e-10))
    above = constrained_delta(config, A_C * (1.0 + 1e-10))
    assert below.Delta == 1.0
    assert above.Delta == pytest.approx(1.0, abs=1e-4)


def test_boundary_is_constrained_minimizer():
    # on the boundary branch the energy must not improve by moving Delta
    # into the feasible interior
    # compare through the bare energy functional: it coincides with the
    # constrained one on feasible configurations and avoids spurious
    # +inf when the boundary gap rounds one ulp inside the core
    sigma = 1.1
    config = cfg(sigma)
    jp = junction(config)
    A = jp.A_star * 2.0
    sol = constrained_delta(config, A)
    E_b = bipartite_energy(SPEC, A, sol.Delta).value
    for frac in (0.999, 0.99, 0.9, 0.5):
        Delta_in = 1.0 + frac * (sol.Delta - 1.0)
        E_in = bipartite_energy(SPEC, A, Delta_in).value
        assert E_b < E_in


# --------------------------------------------------------------------- sweeps

def test_hardcore_sweep_branch_sequence():
    # sigma = 1.01 keeps a wide unconstrained window (A_c, A*) so a
    # coarse grid still lands points on all three branches
    config = cfg(1.01)
    jp = junction(config)
    grid = np.linspace(1.05, 3.0, 40)
    sols = hardcore_sweep(config, grid)
    branches = []
    for s in sols:
        if not branches or branches[-1] != s.branch:
            branches.append(s.branch)
    assert branches == ["trivial", "bipartite", "boundary"]
    for s in sols:
        if s.branch == "boundary":
            assert s.A >= jp.A_star * (1.0 - 1e-12)
    deltas = [s.Delta for s in sols]
    assert all(x <= y for x, y in zip(deltas, deltas[1:]))


# ------------------------------------------------------------------- tau limit

def test_tau_theory_prefactor_values():
    # closed-form amplitude; full-period convention doubles these
    from ljchain.specfun import riemann_zeta
    want = 0.5 * (2.0 * 7.0 * riemann_zeta(8.0) / 6.0) ** (1.0 / 8.0)
    assert tau_theory_prefactor(SPEC) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        tau_theory_prefactor(PotentialSpec(SPEC.components))


@pytest.mark.parametrize("n,m", [(12, 6), (8, 6), (6, 2), (6, 3)])
def test_tau_fit(n, m):
    fit = fit_tau(mie_potential(n, m))
    assert fit.exponent == pytest.approx(-1.0 / (m + 2.0), abs=5e-3)
    assert fit.theory_exponent == -1.0 / (m + 2.0)
    assert fit.prefactor_at_theory_exponent == \
        pytest.approx(fit.theory_prefactor, rel=1e-2)
    assert fit.r_squared > 0.999


def test_fit_tau_rejects_bad_args():
    with pytest.raises(ValueError):
        fit_tau(SPEC, window=(1e-9, 1e-12))
    with pytest.raises(ValueError):
        fit_tau(PotentialSpec(SPEC.components))


def test_fit_tau_keeps_its_points():
    # the library's own grid: numpy's geomspace puts its sixth point 1 ulp lower
    fit = fit_tau(SPEC, window=(1e-10, 1e-8), n_points=8)
    assert fit.xs == tuple(_geomspace(1e-10, 1e-8, 8))
    for x, y in zip(fit.xs, fit.ys):
        assert y == junction(HardCoreConfig(SPEC, 1.0 + x)).A_star
