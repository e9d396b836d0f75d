"""Tests for the dimerization solver, sweeps and the onset exponent fit."""

import math
import statistics
import sys

import mpmath
import numpy as np
import pytest

from ljchain import transition
from ljchain.energy import bipartite_energy, energy_curve, equidistant_energy
from ljchain.landau import critical_point
from ljchain.potential import mie_potential, PotentialSpec
from ljchain.specfun import half_point_log_ratio, half_point_odd_head
from ljchain.transition import (
    BracketError,
    DeltaSolution,
    PowerLawFit,
    stationarity_residual,
    solve_delta,
    delta_sweep,
    fit_beta,
    _newton,
)
from evalcounts import SMALL_PAIRS, W_RANGES, onset_grid, w_grid
from references import reference_half_point_odd_series, reference_small_gap_odd_series

SPEC = mie_potential(12, 6)
A_C = critical_point(SPEC).A_c
PAIRS = [(12, 6), (7, 6), (8, 6), (6, 3), (100, 99)]
# n - m = 0.01: the computed A_c is off by -9e-14 relative, and the solver
# with a fixed onset band raised BracketError just above it
CLOSE_PAIR = (18.36738958292275, 18.35738958292275)


def _c0(n, m, A):
    """The residual at delta = 1/2, as solve_delta forms it."""
    gm, _ = half_point_odd_head(m + 1.0)
    gn, _ = half_point_odd_head(n + 1.0)
    return math.log(gm / gn) + (n - m) * math.log(2.0 * A)


# ------------------------------------------------------- mpmath reference

def mpmath_root(n, m, A, Delta, dps=50):
    """(Delta, c0) at the double A, in mpmath at dps digits: the root of
    the stationarity condition nearest the given Delta, and the residual
    at delta = 1/2."""
    with mpmath.workdps(dps):
        n, m, A = mpmath.mpf(n), mpmath.mpf(m), mpmath.mpf(A)
        la = mpmath.log(2 * A)

        def residual(d):
            dm = mpmath.zeta(m + 1, d) - mpmath.zeta(m + 1, 1 - d)
            dn = mpmath.zeta(n + 1, d) - mpmath.zeta(n + 1, 1 - d)
            return mpmath.log(dm / dn) + (n - m) * la

        def g1(s):
            return s * (2 ** s - mpmath.mpf(0.5)) * mpmath.zeta(s + 1)

        d = mpmath.findroot(residual, 1 / (1 + mpmath.mpf(Delta)))
        return 1 / d - 1, mpmath.log(g1(m + 1) / g1(n + 1)) + (n - m) * la


# ----------------------------------------------------- bisection reference
# The residual in w = log(2 A delta) and the full-precision bisection that
# solve_delta used before it switched to Brent's method, kept verbatim as
# the reference the new solver must reproduce.

def _reference_residual_w(n, m, A, w):
    delta = math.exp(w) / (2.0 * A)
    if delta >= 0.25:
        u = 0.5 - delta
        return math.log(reference_half_point_odd_series(m + 1.0, u)
                        / reference_half_point_odd_series(n + 1.0, u)) \
            + (n - m) * math.log(2.0 * A)
    vm = reference_small_gap_odd_series(m + 1.0, delta)
    vn = reference_small_gap_odd_series(n + 1.0, delta)
    return ((n - m) * w
            + math.log1p(-delta ** (m + 1.0) * vm)
            - math.log1p(-delta ** (n + 1.0) * vn))


def reference_delta(n, m, A):
    """Delta by bisection to adjacent floats; raises BracketError where
    the residual at the edge is not numerically negative."""
    n, m = float(n), float(m)
    if A <= critical_point(mie_potential(n, m)).A_c * (1.0 + 1e-14):
        return 1.0
    lo, hi = 0.0, math.log(A)
    f_lo = _reference_residual_w(n, m, A, lo)
    f_hi = _reference_residual_w(n, m, A, hi)
    if not (f_lo < 0.0 <= f_hi):
        raise BracketError(f"reference bracket failed at A={A!r}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _reference_residual_w(n, m, A, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    Delta = (2.0 * A - 1.0) + 2.0 * A * math.expm1(-hi)
    return max(Delta, 1.0)


def _grids(n, m):
    """The spacing grids of this module's sweep and beta-fit tests."""
    A_c = critical_point(mie_potential(n, m)).A_c
    return ([float(A) for A in np.linspace(1.0, 3.0, 41)]
            + [A_c + float(x) for x in np.geomspace(1e-8, 1e-4, 20)]
            + [A_c + float(x) for x in np.geomspace(1e-7, 1e-5, 10)])


# ------------------------------------------------------------------ the solver

def test_trivial_below_crossing():
    for A in (0.5, 0.9, A_C * 0.999, A_C):
        sol = solve_delta(SPEC, A)
        assert sol.branch == "trivial"
        assert sol.Delta == 1.0
        assert sol.residual == 0.0


def test_bipartite_above_crossing():
    sol = solve_delta(SPEC, 1.2)
    assert sol.branch == "bipartite"
    assert sol.Delta > 1.0
    assert sol.residual <= 1e-11


def test_solution_satisfies_public_residual():
    for A in (1.11, 1.3, 2.0, 5.0):
        sol = solve_delta(SPEC, A)
        delta = 1.0 / (1.0 + sol.Delta)
        assert abs(stationarity_residual(SPEC, A, delta)) < 1e-9


def test_solution_is_energy_minimum():
    # scan the energy over Delta at fixed A and compare to the solver;
    # also check positive curvature via a second difference
    A = 2.0
    sol = solve_delta(SPEC, A)
    E_at = bipartite_energy(SPEC, A, sol.Delta).value
    h = 1e-4 * sol.Delta
    E_up = bipartite_energy(SPEC, A, sol.Delta + h).value
    E_dn = bipartite_energy(SPEC, A, sol.Delta - h).value
    assert E_at < E_up and E_at < E_dn
    assert E_up + E_dn - 2.0 * E_at > 0.0
    grid = np.linspace(1.0, 2.0 * A - 1.0, 2001)[1:-1]
    vals = [bipartite_energy(SPEC, A, d).value for d in grid]
    best = grid[int(np.argmin(vals))]
    assert best == pytest.approx(sol.Delta, abs=grid[1] - grid[0])


def test_large_A_asymptote():
    # Delta -> 2A - 1 as the outer gap swallows the whole cell
    sol = solve_delta(SPEC, 50.0)
    assert sol.branch == "bipartite"
    assert abs(sol.Delta - 99.0) < 0.01
    assert sol.Delta < 99.0


def test_asymptote_margin_stays_positive():
    # the bound Delta < 2A - 1 must hold strictly wherever doubles can
    # still represent the margin (it shrinks like (2A)^-m)
    for A in (10.0, 30.0, 55.0):
        sol = solve_delta(SPEC, A)
        assert sol.Delta < 2.0 * A - 1.0
    # far out the margin drops below one ulp; never exceed the bound
    for A in (100.0, 1000.0):
        sol = solve_delta(SPEC, A)
        assert sol.Delta <= 2.0 * A - 1.0


def test_solver_no_bracket_failures_over_wide_range():
    for f in np.geomspace(1.0 + 1e-10, 1e6, 40):
        sol = solve_delta(SPEC, A_C * float(f))
        assert sol.branch == "bipartite"
        assert sol.Delta > 1.0


def test_onset_continuity():
    # just above the crossing the order parameter comes up from zero
    sol = solve_delta(SPEC, A_C + 1e-12)
    assert sol.branch == "bipartite"
    assert 0.0 < sol.Delta - 1.0 < 1e-5


def test_onset_amplitude_matches_square_root_law():
    # Delta - 1 ~ 2 sqrt(-E2'/(2 E4)) sqrt(A - A_c) very close to onset
    from ljchain.landau import landau_closed, E2_slope_closed
    amp_eps = math.sqrt(-E2_slope_closed(SPEC, A_C)
                        / (2.0 * landau_closed(SPEC, A_C).E4))
    x = 1e-10
    sol = solve_delta(SPEC, A_C + x)
    assert sol.Delta - 1.0 == pytest.approx(amp_eps * math.sqrt(x), rel=1e-3)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_delta(SPEC, 0.0)
    with pytest.raises(ValueError):
        solve_delta(PotentialSpec(SPEC.components), 1.2)
    with pytest.raises(ValueError):
        stationarity_residual(SPEC, 1.2, 0.6)
    with pytest.raises(ValueError):
        stationarity_residual(SPEC, 1.2, 0.0)


@pytest.mark.parametrize("A", [math.inf, math.nan])
def test_solver_rejects_non_finite_A(A):
    with pytest.raises(ValueError, match="finite"):
        solve_delta(SPEC, A)
    with pytest.raises(ValueError, match="finite"):
        stationarity_residual(SPEC, A, 0.3)


# grid points where the bisection reference itself is more than 1e-12
# from mpmath (dps 50): 1.25e-12, 1.45e-12 and 1.18e-12.  There the
# solver is compared with mpmath instead
BISECTION_MISSES = {(12, 6): (1.108654795157924,), (7, 6): (1.1427385203880869,),
                    (6, 3): (1.2033216943643033,)}


@pytest.mark.parametrize("n,m", PAIRS)
def test_matches_bisection_reference(n, m):
    # tolerance fixed before the change: near onset the residual is flat
    # at roundoff and the two methods may stop at different points of it
    spec = mie_potential(n, m)
    compared = 0
    misses = BISECTION_MISSES.get((n, m), ())
    for A in _grids(n, m):
        try:
            want = reference_delta(n, m, A)
        except BracketError:
            continue
        got = solve_delta(spec, A).Delta
        if A in misses:
            want = float(mpmath_root(n, m, A, got)[0])
        assert abs(got - want) <= 1e-12 * want, (A, got, want)
        compared += 1
    assert compared >= 40


@pytest.mark.parametrize("x", [1e-12, 1e-10, A_C * 1e-10])
def test_onset_root_within_roundoff(x):
    # closer to onset than the grids above the residual is exactly zero
    # over an interval of offsets several 1e-12 wide; the solver may stop
    # anywhere in it, so check it is a root, as the reference is
    A = A_C + x
    sol = solve_delta(SPEC, A)
    want = reference_delta(12, 6, A)
    for Delta in (sol.Delta, want):
        delta = 1.0 / (1.0 + Delta)
        assert abs(stationarity_residual(SPEC, A, delta)) <= 4e-15
    assert sol.residual <= 4e-15
    assert abs(sol.Delta - want) <= 1e-9 * want


def test_evaluation_counts():
    evals = []
    for spec, grid in [(SPEC, np.linspace(1.0, 3.0, 41)),
                       (mie_potential(7, 6), np.linspace(1.0, 3.0, 21)),
                       (SPEC, A_C * np.geomspace(1.0 + 1e-10, 1e6, 40))]:
        evals += [s.evals for s in delta_sweep(spec, grid)
                  if s.branch == "bipartite"]
    for n, m in [(12, 6), (7, 6)]:
        spec = mie_potential(n, m)
        A_c = critical_point(spec).A_c
        for x in np.geomspace(1e-8, 1e-4, 20):
            evals.append(solve_delta(spec, A_c + float(x)).evals)
    assert len(evals) > 100
    assert max(evals) <= 40
    assert statistics.median(evals) <= 12
    assert solve_delta(SPEC, 0.9).evals == 0


@pytest.mark.parametrize("n,m", PAIRS + [CLOSE_PAIR])
def test_onset_evaluation_counts(n, m):
    # near onset the root is found in t = u^2, where the residual is
    # linear to first order and Newton starts from its slope at t = 0;
    # over 1.2 <= A <= 3 the median stays at or below the one measured
    # before the t-form (same grid)
    spec = mie_potential(n, m)
    onset = [s.evals for s in delta_sweep(spec, onset_grid(n, m))
             if s.branch == "bipartite"]
    assert len(onset) >= 50        # A_c is off by up to 1e-13 relative
    if (n, m) in SMALL_PAIRS:
        assert max(onset) <= 10
        assert statistics.median(onset) <= 4
    else:
        assert statistics.median(onset) <= 8
    before = {(12, 6): 8, (7, 6): 8, (8, 6): 8, (6, 3): 9, (100, 99): 4, CLOSE_PAIR: 5}
    wide = [s.evals for s in delta_sweep(spec, np.linspace(1.2, 3.0, 37))
            if s.branch == "bipartite"]
    assert statistics.median(wide) <= before[(n, m)]


@pytest.mark.parametrize("n", [CLOSE_PAIR[0], CLOSE_PAIR[1] + 0.023])
def test_close_pair_onset_regression(n):
    # with A_c off by -9e-14, 14 (n - m = 0.01) and 12 (0.023) of these
    # spacings raised BracketError; now the trivial branch is decided by
    # the sign of c0, the residual at delta = 1/2, alone
    m = CLOSE_PAIR[1]
    spec = mie_potential(n, m)
    A_c = critical_point(spec).A_c
    grid = [A_c * (1.0 + float(x)) for x in np.geomspace(1e-14, 1e-10, 60)]
    if n == CLOSE_PAIR[0]:
        grid.append(1.0530034598215796)
    for A in grid:
        sol = solve_delta(spec, A)
        if sol.branch == "trivial":
            assert _c0(n, m, A) <= 0.0
            assert A <= A_c * (1.0 + 1e-12)
            continue
        assert sol.branch == "bipartite"
        assert abs(stationarity_residual(spec, A, 1.0 / (1.0 + sol.Delta))) <= 1e-11


@pytest.mark.parametrize("n,m", [(12, 6), (7, 6)])
@pytest.mark.parametrize("x", [1e-8, 1e-6, 1e-4])
def test_onset_accuracy_against_mpmath(n, m, x):
    # the error in eps = log Delta stays within what c0's roundoff bound
    # propagates to (solve_delta's docstring), plus the rounding of Delta
    spec = mie_potential(n, m)
    A = critical_point(spec).A_c + x
    sol = solve_delta(spec, A)
    Delta, c0 = mpmath_root(n, m, A, sol.Delta)
    eps = float(mpmath.log(Delta))
    scale = 1.0 + abs(_c0(n, m, A) - (n - m) * math.log(2.0 * A)) \
        + (n - m) * abs(math.log(2.0 * A))
    bound = transition._ROUNDOFF * scale / (2.0 * float(c0)) * eps + 2.0 * sys.float_info.epsilon
    assert abs(math.log(sol.Delta) - eps) <= bound


@pytest.mark.parametrize("n,m", [(12, 6), (7, 6)])
@pytest.mark.parametrize("x", [1e-8, 1e-6, 1e-4])
def test_onset_error_estimate_covers_the_miss(n, m, x):
    # est_error bounds the distance of Delta from the dps-50 root
    spec = mie_potential(n, m)
    sol = solve_delta(spec, critical_point(spec).A_c + x)
    Delta, _ = mpmath_root(n, m, sol.A, sol.Delta)
    assert 0.0 < sol.est_error < 1e-9
    assert abs(sol.Delta - Delta) <= sol.est_error


@pytest.mark.parametrize("n,m", SMALL_PAIRS)
def test_error_estimate_covers_the_miss(n, m):
    spec = mie_potential(n, m)
    for A in transition._linspace(1.2, 3.0, 10):
        sol = solve_delta(spec, A)
        if sol.branch == "trivial":            # (6,3) at A = 1.2 < A_c
            assert sol.est_error == 0.0
            continue
        Delta, _ = mpmath_root(n, m, A, sol.Delta)
        assert 0.0 < sol.est_error < 1e-11
        assert abs(sol.Delta - Delta) <= sol.est_error, (A, sol)


def _mp_residual(n, m, delta, logb):
    """The stationarity residual of _log_stationarity, in mpmath."""
    n, m = mpmath.mpf(n), mpmath.mpf(m)

    def log_d(s):
        return mpmath.log(mpmath.zeta(s, delta) - mpmath.zeta(s, 1 - delta))

    return log_d(m + 1) - log_d(n + 1) + (n - m) * (logb - mpmath.log(delta))


# (pair, A, delta): the branch the residual takes there
SLOPE_CASES = {
    "both half-point": ((12.0, 6.0), 1.3, 0.4),
    "mixed": ((60.0, 12.0), 1.3, 0.4),
    "both direct": ((12.0, 6.0), 2.0, 0.2),
    "mirror sums": ((100.0, 99.0), 2.0, 0.2),
}


@pytest.mark.parametrize("case", SLOPE_CASES)
def test_slope_in_w_against_mpmath(case):
    # the residual of the w solve and its slope in w = log(2 A delta),
    # log(b/delta) = log 2A held fixed
    (n, m), A, delta = SLOPE_CASES[case]
    w = math.log(2.0 * A * delta)
    c0 = _c0(n, m, A)
    f, slope = transition._free_residual(n, m, c0, delta, w)
    with mpmath.workdps(50):
        def residual(v):
            return _mp_residual(n, m, mpmath.exp(v) / (2 * mpmath.mpf(A)), v)
        assert f == pytest.approx(float(residual(w)), rel=1e-12, abs=1e-14)
        want = float(mpmath.diff(residual, mpmath.mpf(w)))
    assert slope == pytest.approx(want, rel=1e-10)


def test_slope_in_t_against_mpmath():
    n, m, A, t = 12.0, 6.0, 1.15, 0.003
    f, slope = transition._half_point_residual(n, m, _c0(n, m, A), t)
    with mpmath.workdps(50):
        def residual(v):
            delta = mpmath.mpf(0.5) - mpmath.sqrt(v)
            return _mp_residual(n, m, delta, mpmath.log(2 * mpmath.mpf(A) * delta))
        want = float(mpmath.diff(residual, mpmath.mpf(t)))
    assert slope == pytest.approx(want, rel=1e-10)


def test_t_branch_fields(monkeypatch):
    # in t = u^2 the residual is c0 + R(t); DeltaSolution.residual is its
    # magnitude at the returned end, the one of nonnegative residual
    # nearest the root, and evals counts every evaluation, the one at the
    # far bracket end included
    seen = []

    def counted(s, t):
        seen.append(t)
        return half_point_log_ratio(s, t)

    def forbidden(*args):
        raise AssertionError("the w-form residual was evaluated")

    monkeypatch.setattr(transition, "half_point_log_ratio", counted)
    monkeypatch.setattr(transition, "_log_stationarity", forbidden)
    n, m = SPEC.mie
    A = A_C + 1e-6
    sol = solve_delta(SPEC, A)
    assert sol.branch == "bipartite"
    assert len(seen) == 2 * sol.evals
    c0 = _c0(n, m, A)
    f = {t: c0 + half_point_log_ratio(m + 1.0, t)[0] - half_point_log_ratio(n + 1.0, t)[0]
         for t in seen}
    t = max(t for t in seen if f[t] >= 0.0)
    assert sol.residual == f[t]
    u = math.sqrt(t)
    assert sol.Delta == 1.0 + 4.0 * u / (1.0 - 2.0 * u)


def test_evals_count_the_t_end_of_a_fallback(monkeypatch):
    # where the first-order root lies inside the t-form's range but the
    # root does not, the solve falls back to w; evals counts both
    calls = {"t": 0, "w": 0}

    def counted_t(s, t):
        calls["t"] += 1
        return half_point_log_ratio(s, t)

    real = transition._log_stationarity

    def counted_w(*args):
        calls["w"] += 1
        return real(*args)

    monkeypatch.setattr(transition, "half_point_log_ratio", counted_t)
    monkeypatch.setattr(transition, "_log_stationarity", counted_w)
    sol = solve_delta(SPEC, A_C * 1.36)
    assert sol.branch == "bipartite"
    assert calls["t"] == 2 and calls["w"] > 0
    assert sol.evals == 1 + calls["w"]


@pytest.mark.parametrize("A", [1.5, 2.0, 1e3, 1e4])
def test_close_pair_edge_regression(A):
    # the edge residual of (100,99) rounds to >= 0 at A = 2 and is exactly
    # 0 once delta**(n+1) underflows; the edge is then the root
    sol = solve_delta(mie_potential(100, 99), A)
    assert sol.branch == "bipartite"
    assert sol.residual <= 1e-11
    assert 1.0 < sol.Delta <= 2.0 * A - 1.0
    delta = 1.0 / (1.0 + sol.Delta)
    assert abs(stationarity_residual(mie_potential(100, 99), A, delta)) <= 1e-11


def test_close_pair_no_bracket_failures():
    spec = mie_potential(100, 99)
    A_c = critical_point(spec).A_c
    grid = list(np.linspace(1.2, 2.0, 41)) \
        + list(A_c * np.geomspace(1.0 + 1e-10, 1e6, 40))
    for sol in delta_sweep(spec, grid):
        assert sol.branch == "bipartite"
        assert sol.residual <= 1e-11
        assert 1.0 < sol.Delta <= 2.0 * sol.A - 1.0


def test_no_evaluation_at_the_symmetric_end(monkeypatch):
    # c0 is the residual at delta = 1/2 in t and in w alike, so no solve
    # evaluates it there; every root below lies at u > 1e-6
    us = []

    def counted_t(s, t):
        us.append(math.sqrt(t))
        return half_point_log_ratio(s, t)

    def counted_w(n, m, delta, logb):
        us.append(0.5 - delta)
        return real(n, m, delta, logb)

    real = transition._log_stationarity
    monkeypatch.setattr(transition, "half_point_log_ratio", counted_t)
    monkeypatch.setattr(transition, "_log_stationarity", counted_w)
    for n, m in PAIRS:
        spec = mie_potential(n, m)
        A_c = critical_point(spec).A_c
        for A in (A_c * (1.0 + 1e-8), A_c * 1.01, 1.3, 1.5, 2.0, 10.0, 1e3):
            del us[:]
            assert solve_delta(spec, A).branch == "bipartite"
            assert min(us) > 1e-9, (n, m, A)


@pytest.mark.parametrize("n,m,wide", [(12, 6, 7), (8, 6, 7), (6, 3, 8), (7, 6, 7)])
def test_w_solve_evaluation_counts(n, m, wide):
    # medians over 200 log-uniform spacings per range, two below the
    # bounds Brent's method met (wide on 1.2 <= A <= 3, 6 above); its
    # medians were 7, 7, 8, 6 and 6 (8, 8, 9, 7 and 7 while the w solve
    # evaluated its symmetric end)
    spec = mie_potential(n, m)
    for (lo, hi), brent in zip(W_RANGES, (wide, 6)):
        evals = [solve_delta(spec, A).evals for A in w_grid(lo, hi)]
        assert statistics.median(evals) <= brent - 2


def test_edge_rule(monkeypatch):
    # a residual at the edge within its roundoff bound returns the edge;
    # a clearly positive one is a failed bracket
    monkeypatch.setattr(transition, "_log_stationarity",
                        lambda n, m, delta, logb: (1e-17, 1.0, 1.0))
    sol = solve_delta(SPEC, 2.0)
    assert (sol.Delta, sol.residual, sol.branch, sol.evals) == \
        (3.0, 1e-17, "bipartite", 1)
    monkeypatch.setattr(transition, "_log_stationarity",
                        lambda n, m, delta, logb: (1e-3, 1.0, 1.0))
    with pytest.raises(BracketError):
        solve_delta(SPEC, 2.0)


# ---------------------------------------------------------- the root finder

def _with_slope(f, df):
    return lambda x: (f(x), df(x))


def test_newton_one_ulp_bracket():
    f = _with_slope(lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x)
    x, (fx, _), _, evals = _newton(f, 0.0, 2.0, f(2.0), 0.0, f(0.0))
    assert fx >= 0.0 and x ** 3 - 2.0 == fx
    below = math.nextafter(x, 0.0)
    assert fx == 0.0 or below ** 3 - 2.0 < 0.0
    assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    assert evals <= 15


def test_newton_stops_on_exact_zero():
    f = _with_slope(lambda x: x - 0.5, lambda x: 1.0)
    x, (fx, _), _, evals = _newton(f, 0.0, 1.0, f(1.0), 0.0, f(0.0))
    assert (x, fx, evals) == (0.5, 0.0, 1)


def test_newton_returns_the_end_on_b_side():
    # decreasing function: the returned end has a residual <= 0
    f = _with_slope(lambda x: 1.0 - x * x, lambda x: -2.0 * x)
    x, (fx, _), _, _ = _newton(f, 0.0, 3.0, f(3.0), 0.0, f(0.0))
    assert fx <= 0.0
    assert fx == 0.0 or 1.0 - math.nextafter(x, 0.0) ** 2 > 0.0


def test_newton_tiny_root():
    # a root at 1e-200 is found to full relative precision without the
    # step lengths underflowing
    f = _with_slope(lambda x: x - 1e-200, lambda x: 1.0)
    x, _, _, evals = _newton(f, 0.0, 1.0, f(1.0), 0.0, f(0.0))
    assert x == pytest.approx(1e-200, rel=1e-15)
    assert evals <= 10


def test_newton_reaches_an_unknown_end_only_when_needed():
    # the residual at a is not known: it is evaluated when an iterate
    # would pass it, and a root beyond it is reported as None
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.75, 1.0

    x, r, _, evals = _newton(f, 0.5, 0.0, (-0.75, 1.0), 0.0, (-0.75, 1.0))
    assert x is None and r[0] < 0.0
    assert seen == [0.5] and evals == 1
    del seen[:]
    x, _, _, _ = _newton(f, 1.0, 0.0, (-0.75, 1.0), 0.0, (-0.75, 1.0))
    assert x == 0.75 and 1.0 not in seen


def test_solution_record_invariants():
    with pytest.raises(ValueError):
        DeltaSolution(1.0, 0.5, 0.0, "bipartite")
    with pytest.raises(ValueError):
        DeltaSolution(1.0, 1.5, 0.0, "nonsense")


# ---------------------------------------------------------------------- sweeps

def test_sweep_monotone_and_bounded():
    grid = np.linspace(1.0, 3.0, 41)
    sols = delta_sweep(SPEC, grid)
    deltas = [s.Delta for s in sols]
    assert all(x <= y for x, y in zip(deltas, deltas[1:]))
    for s in sols:
        assert 1.0 <= s.Delta
        if s.A > 1.0:
            assert s.Delta < 2.0 * s.A - 1.0
        assert (s.branch == "trivial") == (s.Delta == 1.0)
        if s.A <= A_C:
            assert s.branch == "trivial"
        if s.A >= A_C * 1.001:
            assert s.branch == "bipartite"


def test_sweep_other_pair():
    spec = mie_potential(7, 6)
    ac = critical_point(spec).A_c
    sols = delta_sweep(spec, np.linspace(1.0, 3.0, 21))
    for s in sols:
        if s.branch == "bipartite":
            assert s.A > ac
            assert s.residual < 1e-10


# ------------------------------------------------------------------- beta fits

@pytest.mark.parametrize("n,m", [(12, 6), (7, 6)])
def test_beta_fit(n, m):
    fit = fit_beta(mie_potential(n, m))
    assert isinstance(fit, PowerLawFit)
    assert fit.exponent == pytest.approx(0.5, abs=1e-3)
    assert fit.r_squared > 0.99999
    assert fit.theory_exponent == 0.5
    # amplitude: the pinned-exponent refit removes slope leverage and
    # must match the Landau prediction at the percent level
    assert fit.prefactor_at_theory_exponent == \
        pytest.approx(fit.theory_prefactor, rel=1e-2)


def test_beta_fit_window_control():
    fit = fit_beta(SPEC, window=(1e-7, 1e-5), n_points=10)
    assert fit.window == (1e-7, 1e-5)
    assert fit.n_points == 10
    assert fit.exponent == pytest.approx(0.5, abs=1e-3)


def test_fits_check_point_count_before_solving(monkeypatch):
    from ljchain import hardcore

    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("solved before the point count was checked")

    monkeypatch.setattr(transition, "solve_delta", counted)
    monkeypatch.setattr(hardcore, "junction", counted)
    with pytest.raises(ValueError, match="at least 8 points"):
        transition.fit_beta(SPEC, n_points=5)
    with pytest.raises(ValueError, match="at least 8 points"):
        hardcore.fit_tau(SPEC, n_points=7)
    assert calls == []


def test_beta_fit_rejects_bad_window():
    with pytest.raises(ValueError):
        fit_beta(SPEC, window=(1e-4, 1e-8))
    with pytest.raises(ValueError):
        fit_beta(SPEC, window=(0.0, 1e-4))
    with pytest.raises(ValueError):
        fit_beta(SPEC, n_points=5)


def test_fits_reject_an_infinite_window_before_solving(monkeypatch):
    # the command line's windows end below inf; so do the library's, and
    # the check comes before any solve
    from ljchain import hardcore

    def forbidden(*args):
        raise AssertionError("solved before the window was checked")

    monkeypatch.setattr(transition, "solve_delta", forbidden)
    monkeypatch.setattr(hardcore, "junction", forbidden)
    with pytest.raises(ValueError, match="bad window"):
        fit_beta(SPEC, (1e-8, math.inf))
    with pytest.raises(ValueError, match="bad window"):
        hardcore.fit_tau(SPEC, (1e-12, math.inf))


# ---------------------------------------------------------------- energy curve

def test_energy_curve_phases_and_continuity():
    grid = np.linspace(0.95, 1.6, 66)
    rows = energy_curve(SPEC, grid)
    for row in rows:
        if row.A <= A_C:
            assert row.phase == "equidistant"
            assert row.E_ground == row.E_equidistant_continuation
            assert row.Delta == 1.0
        if row.A > A_C * 1.0001:
            assert row.phase == "bipartite"
            # the dimerized state strictly undercuts the symmetric one
            assert row.E_ground < row.E_equidistant_continuation
            assert row.Delta > 1.0


def test_energy_curve_continuous_at_crossing():
    lo = energy_curve(SPEC, [A_C * (1.0 - 1e-11)])[0]
    hi = energy_curve(SPEC, [A_C * (1.0 + 1e-11)])[0]
    assert hi.E_ground == pytest.approx(lo.E_ground, abs=1e-10)


def test_energy_gain_scales_quadratically_in_distance():
    # second-order transition: E_eq - E_ground ~ (A - A_c)^2 near onset
    xs = np.geomspace(1e-4, 1e-2, 9)
    gains = []
    for x in xs:
        row = energy_curve(SPEC, [A_C + float(x)])[0]
        gains.append(row.E_equidistant_continuation - row.E_ground)
    assert all(g > 0.0 for g in gains)
    slope = np.polyfit(np.log(xs), np.log(gains), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


# ------------------------------------------- large exponents, flat residuals

@pytest.mark.parametrize("n,m", [(200, 199), (400, 399)])
def test_large_close_pairs_solve(n, m):
    # near the edge the half-point series of s ~ 400 needs more terms than
    # its limit; the residual takes the direct form there instead
    spec = mie_potential(n, m)
    for A in list(np.linspace(1.2, 2.0, 33)) + [1.863]:
        A = float(A)
        sol = solve_delta(spec, A)
        assert sol.branch == "bipartite"
        assert sol.residual <= 1e-11
        assert 1.0 < sol.Delta <= 2.0 * A - 1.0
        assert abs(stationarity_residual(spec, A, 1.0 / (1.0 + sol.Delta))) <= 1e-11


@pytest.mark.parametrize("root", [0.1234567, 0.6180339887, 0.31415926])
def test_newton_flat_then_linear(root):
    # at a scale of 1e-170 the residual is flat, of slope zero, up to 0.1
    # below the root; the step falls back to bisection there
    def f(x):
        return max(x - root, -0.1) * 1e-170, (1e-170 if x - root > -0.1 else 0.0)

    x, (fx, _), _, evals = _newton(f, 0.0, 1.0, f(1.0), 0.0, f(0.0))
    assert fx >= 0.0
    assert fx == 0.0 or f(math.nextafter(x, 0.0))[0] < 0.0
    assert x == pytest.approx(root, rel=1e-15)
    assert evals <= 60


def test_beta_fit_keeps_its_points():
    fit = fit_beta(SPEC, window=(1e-7, 1e-5), n_points=10)
    assert fit.xs == tuple(float(x) for x in np.geomspace(1e-7, 1e-5, 10))
    assert len(fit.ys) == 10
    for x, y in zip(fit.xs, fit.ys):
        assert y == solve_delta(SPEC, A_C + x).Delta - 1.0
