"""Locating the dimerized ground state beyond the crossing.

For the n-m potential at half-spacing A the optimal gap ratio Delta
solves the stationarity condition of the two-periodic energy.  In terms
of delta = 1/(1+Delta), the short gap b = 2A delta and
D_s(delta) = zeta(s+1, delta) - zeta(s+1, 1-delta) (note the shift:
differentiating the lattice sum raises the exponent by one) the
condition reads

    D_{m+1}(delta) / D_{n+1}(delta) = (b/delta)^{m-n}

It is evaluated in log form from cancellation-free D values, so the
residual stays at roundoff level both near onset (delta -> 1/2) and deep
in the dimerized regime (delta -> 0).  Near the symmetric point D_s =
2u S_s(u), u = 1/2 - delta, and the half-point series S_s enters in one
form only: its head S_s(0) = 2 g_{s,1} and the log ratio log(S_s(u)/S_s(0))
in t = u^2, log1p of the series from its second coefficient on
(specfun.half_point_log_ratio), so nothing of order one cancels.  On the
free chain the residual there is c0 + R(t), with

    c0 = log(g_{m+1,1}/g_{n+1,1}) + (n-m) log 2A,
    R(t) = log(S_{m+1}(u)/S_{m+1}(0)) - log(S_{n+1}(u)/S_{n+1}(0)),

c0 its value at delta = 1/2.  Elsewhere it takes the direct form
-s log delta + log1p(-delta^s V_s(delta)), with V_s the small-gap odd
series, or for large s its mirror terms summed one by one.
_log_stationarity evaluates the condition, and its slope from the same
series passes, for any log b; the hard-core junction imports it with
b = sigma.

c0 changes sign at the crossing A_c, where the symmetric chain turns
unstable (_critical_A, the sign change of the Landau coefficient E2).
Where c0 <= 0 the only solution is Delta = 1.  Otherwise solve_delta
finds the root with one safeguarded Newton loop inside a verified
bracket (_newton, also the junction's): in t near onset, where c0 + R(t)
is linear to first order, else in w = log b.  It feeds the sweep and
the fit of Delta - 1 against A - A_c here, and energy.energy_curve.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache, partial

from .potential import PotentialSpec
from .specfun import (
    half_point_log_ratio, half_point_odd_head, riemann_zeta, small_gap_log_ratio)

__all__ = [
    "BracketError",
    "DeltaSolution",
    "PowerLawFit",
    "stationarity_residual",
    "solve_delta",
    "delta_sweep",
    "fit_beta",
]

_EPS = sys.float_info.epsilon
_HALF_POINT = 1.0 / 3.0         # offsets at or above may use the half-point series
_LOG2 = math.log(2.0)
# exponents from which the direct form sums the mirror terms one by one
_MIRROR_SUM_MIN_S = 40.0
_MIRROR_SUM_STOP = 1e-18
# roundoff bound of the residual, per unit of the summed magnitudes of
# its terms.  At the edge of (100,99), (200,199) and (400,399) for
# 1.3 <= A <= 2, where the true residual is below 1e-25, the computed one
# reached 7.0, 7.6 and 9.5 eps per unit: the odd series of a large
# exponent carry several ulp
_ROUNDOFF = 32.0 * _EPS
_MIN_FIT_POINTS = 8
_PAIR_MAXSIZE = 1024            # cached pair constants (n, m)
_CRITICAL_MAXSIZE = 1024        # cached crossings (n, m)


class BracketError(RuntimeError):
    """Raised when a root bracket that should exist fails to verify."""


class DeltaSolution(namedtuple("DeltaSolution", "A Delta residual branch evals est_error")):
    __slots__ = ()

    def __new__(cls, A: float, Delta: float, residual: float, branch: str,
                evals: int = 0, est_error: float = 0.0):
        # branch: trivial | bipartite | boundary; evals: residual
        # evaluations, bracket checks included; est_error: see solve_delta
        if branch not in ("trivial", "bipartite", "boundary"):
            raise ValueError(f"unknown branch {branch!r}")
        if not Delta >= 1.0:
            raise ValueError("solutions are reported with Delta >= 1")
        return tuple.__new__(cls, (A, Delta, residual, branch, evals, est_error))


class PowerLawFit(namedtuple("PowerLawFit", (
        "exponent", "prefactor", "r_squared", "window", "n_points",
        "theory_exponent", "theory_prefactor", "prefactor_at_theory_exponent",
        "xs", "ys", "junctions"), defaults=(None, None, None, (), (), ()))):
    """Least-squares power law y = prefactor * x^exponent on log axes.

    The theory_* fields carry the analytic prediction when one exists;
    prefactor_at_theory_exponent refits only the amplitude with the
    exponent pinned to theory, which removes the slope-bias leverage a
    free fit suffers when extrapolated far outside its window.  xs and
    ys are the points fitted, in window order; junctions holds the
    JunctionPoint solved for each point of a tau fit, and stays empty
    for beta fits.
    """
    __slots__ = ()


def _require_mie(spec: PotentialSpec) -> tuple[float, float]:
    if spec.mie is None:
        raise ValueError("stationarity machinery requires an n-m potential")
    return spec.mie


def _log_stationarity(n: float, m: float, delta: float,
                      logb: float) -> tuple[float, ...]:
    """The log-form stationarity residual, its slope and its terms.

    b is the short gap: 2A delta on the free chain, sigma on the
    hard-core junction.  The residual is

        log D_{m+1}(delta) - log D_{n+1}(delta) - (m-n) log(b/delta)

    with each log D_s formed without cancellation in one of two ways
    (_half_point_form picks one per exponent).  Near the symmetric point,
    log D_s = log(4u g_{s,1}) + the log ratio in t = u^2; with both
    exponents in this form the log(4u) terms cancel exactly.  Elsewhere,
    the direct form log D_s = -s log delta + log(delta^s D_s)
    (_log_direct), whose log delta terms cancel exactly when both
    exponents take it.  After the residual come its derivative in delta
    at fixed log b and the terms it adds up, whose magnitudes set how far
    from zero roundoff alone can move it.
    """
    if _half_point_form(n + 1.0, delta):
        u = 0.5 - delta
        head, dt = _half_point_residual(n, m, _pair_constants(n, m)[0], u * u)
        ldelta = math.log(delta)
        return (head + (n - m) * (logb - ldelta), -2.0 * u * dt - (n - m) / delta,
                head, (n - m) * logb, (n - m) * ldelta)
    lin = (n - m) * logb
    tn, dn = _log_direct(n + 1.0, delta)
    if _half_point_form(m + 1.0, delta):
        # only the larger exponent takes the direct form
        u = 0.5 - delta
        lr, dt = half_point_log_ratio(m + 1.0, u * u)
        hm = math.log(4.0 * u * half_point_odd_head(m + 1.0)[0]) + lr
        lm = (m + 1.0) * math.log(delta)
        return (hm + lm - tn + lin, (m + 1.0) / delta - 1.0 / u - 2.0 * u * dt - dn,
                hm, lm, tn, lin)
    tm, dm = _log_direct(m + 1.0, delta)
    return lin + tm - tn, dm - dn, lin, tm, tn


@lru_cache(maxsize=_PAIR_MAXSIZE)
def _pair_constants(n: float, m: float) -> tuple[float, float, float]:
    """log(g_{m+1,1}/g_{n+1,1}), the slope 4 (g_{m+1,3}/g_{m+1,1} -
    g_{n+1,3}/g_{n+1,1}) of c0 + R(t) at t = 0, and u = 1/2 - delta at
    the far edge of _half_point_form(n + 1, .)."""
    gm, rm = half_point_odd_head(m + 1.0)
    gn, rn = half_point_odd_head(n + 1.0)
    e = math.expm1(_LOG2 / (n + 1.0))
    edge = 0.5 - _HALF_POINT if n + 1.0 < _MIRROR_SUM_MIN_S else 0.5 * e / (2.0 + e)
    return math.log(gm / gn), 4.0 * (rm - rn), edge


def _log_P(x: float) -> float:
    # log of (1+x)(2^{2+x}-1) zeta(2+x), safe for large x
    return math.log1p(x) + (2.0 + x) * math.log(2.0) \
        + math.log1p(-(2.0 ** -(2.0 + x))) + math.log(riemann_zeta(2.0 + x))


@lru_cache(maxsize=_CRITICAL_MAXSIZE)
def _critical_A(n: float, m: float) -> float:
    """A_c = (1/2) [P(n)/P(m)]^(1/(n-m)), P(x) = (1+x)(2^{2+x}-1) zeta(2+x):
    the zero of c0, since g_{s,1} = P(s-1)/2."""
    return 0.5 * math.exp((_log_P(n) - _log_P(m)) / (n - m))


def _half_point_residual(n: float, m: float, c: float, t: float) -> tuple[float, float]:
    """c + R(t) and its derivative in t: with c = c0 the free chain's
    residual, with c = log(g_{m+1,1}/g_{n+1,1}) log(S_{m+1}(u)/S_{n+1}(u))."""
    lm, dm = half_point_log_ratio(m + 1.0, t)
    ln, dn = half_point_log_ratio(n + 1.0, t)
    return c + lm - ln, dm - dn


def _free_residual(n: float, m: float, c0: float, delta: float,
                   logb: float) -> tuple[float, float]:
    """The free chain's residual, b = 2A delta, and its derivative in
    w = log b at fixed log 2A: c0 + R(t) where delta takes the half-point
    form, log 2A exact inside c0; elsewhere log b as given."""
    if _half_point_form(n + 1.0, delta):
        u = 0.5 - delta
        f, dt = _half_point_residual(n, m, c0, u * u)
        return f, -2.0 * u * delta * dt
    r = _log_stationarity(n, m, delta, logb)
    return r[0], delta * r[1] + (n - m)


def _log_direct(s: float, delta: float) -> tuple[float, float]:
    """log(delta^s D_s(delta)) = log1p(-delta^s V_s(delta)), delta <= 1/2,
    and its derivative in delta: small_gap_log_ratio below
    _MIRROR_SUM_MIN_S, else delta^s V_s summed as the mirror sum
    sum_{j>=1} (delta/(j-delta))^s - (delta/(j+delta))^s, whose j-th pair
    is below j^-s times its first term: a few pairs where the small-gap
    series would need hundreds of terms."""
    if s < _MIRROR_SUM_MIN_S:
        return small_gap_log_ratio(s, delta)
    x = dx = 0.0
    j = 1.0
    while True:
        lo = (delta / (j - delta)) ** s
        hi = (delta / (j + delta)) ** s
        pair = lo - hi
        x += pair
        dx += j * (lo / (j - delta) - hi / (j + delta))
        if pair <= _MIRROR_SUM_STOP * x:
            return math.log1p(-x), -s / delta * dx / (1.0 - x)
        j += 1.0


def _half_point_form(s: float, delta: float) -> bool:
    """Whether log D_s(delta) is formed from the half-point series.

    Both forms are free of cancellation; the choice is by convergence.
    Below _MIRROR_SUM_MIN_S it is the faster series: delta >= 1/3 means
    u = 1/2 - delta <= delta.  From there on, the mirror sum of the
    direct form needs two or three pairs unless delta^-s and its mirror
    term are within a factor of 2, where the half-point series is short.
    """
    if delta < _HALF_POINT:
        return False
    if s < _MIRROR_SUM_MIN_S:
        return True
    return s * math.log1p((1.0 - 2.0 * delta) / delta) < _LOG2


def stationarity_residual(spec: PotentialSpec, A: float, delta: float) -> float:
    """Log-form residual of the gap stationarity condition.

    Monotone increasing in delta on (0, 1/2]; zero at the optimal
    sublattice offset, negative below it.  The function solve_delta
    solves: c0 + R(t) near delta = 1/2, the direct form with the
    divergent part split off through log1p for smaller delta; both are
    free of cancellation.
    """
    n, m = _require_mie(spec)
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if not 0.0 < A < math.inf:
        raise ValueError("A must be positive and finite")
    la = math.log(2.0 * A)
    return _free_residual(n, m, _pair_constants(n, m)[0] + (n - m) * la, delta,
                          la + math.log(delta))[0]


def _newton(f, a: float, b: float, rb: tuple, x: float, rx: tuple):
    """Root of f between a and b by Newton steps kept inside a bracket.

    f(x) returns a tuple (residual, slope, ...); rb is f(b), rx f(x) at
    the start x in [a, b].  a is evaluated only if an iterate reaches it.
    A Newton step that would leave the bracket is a bisection; one
    longer than half the step before last (a residual flat at roundoff)
    is twice the last step toward the other end, at most a bisection;
    one shorter than an ulp is the neighbouring double across the root.
    Stops on an exactly zero residual or a one-ulp bracket.  Returns
    (x, f(x), other end, evals): x the end on b's side of the root, or
    None when a lies on b's side too.
    """
    if rb[0] == 0.0:
        return b, rb, b, 0
    neg = rb[0] < 0.0
    up = a < b                                  # a is the lower end
    xa, xb, r_b = a, b, rb
    a_known = False
    evals = 0
    step1 = step2 = math.inf                    # the last two step lengths
    while True:
        fx, dx = rx[0], rx[1]
        if fx == 0.0:
            return x, rx, x, evals
        if (fx < 0.0) != neg:
            xa, a_known = x, True
        elif x == a and not a_known:
            return None, rx, xb, evals          # a is on b's side
        else:
            xb, r_b = x, rx
        mid = xa + 0.5 * (xb - xa)
        if mid == xa or mid == xb:              # a one-ulp bracket
            if a_known:
                return xb, r_b, xa, evals
            xn = xa
        else:
            xn = x - fx / dx if dx else math.nan
            if xn == x:                         # shorter than an ulp
                xn = math.nextafter(x, xa if x == xb else xb)
            if not (xa < xn < xb if up else xb < xn < xa):
                # leaving the bracket: reach a if it is still unknown
                xn = xa if not a_known and (xn <= xa if up else xn >= xa) else mid
            elif abs(xn - x) > 0.5 * step2:
                xn = x + math.copysign(2.0 * step1, mid - x)
                if abs(xn - x) >= abs(mid - x):
                    xn = mid
        if xn == mid:
            # a Newton step back from the midpoint may span half the bracket
            step2 = step1 = 2.0 * abs(mid - x)
        else:
            step2, step1 = step1, abs(xn - x)
        x = xn
        rx = f(x)
        evals += 1


def _error_estimate(width: float, bound: float, slope: float, scale: float) -> float:
    """est_error: (bracket width + roundoff bound / |slope|) |dDelta/dx|."""
    return (width + bound / abs(slope)) * scale if slope else math.inf


def solve_delta(spec: PotentialSpec, A: float) -> DeltaSolution:
    """Optimal gap ratio of the two-periodic chain at half-spacing A.

    c0 = log(g_{m+1,1}/g_{n+1,1}) + (n-m) log 2A is the residual at the
    symmetric point delta = 1/2.  Where c0 <= 0 the chain stays
    symmetric: the trivial branch, Delta = 1, with no evaluation.
    Otherwise _newton finds the root in one of two variables, and the
    end of its final bracket whose residual is nonnegative is returned.

    - In t = u^2, u = 1/2 - delta, when the first-order root
      c0 / (4 (g_{n+1,3}/g_{n+1,1} - g_{m+1,3}/g_{m+1,1})) lies before
      t_end, the half-point edge or the feasibility edge, whichever is
      nearer delta = 1/2.  Newton starts at t = 0, whose residual c0 and
      slope cost no evaluation, or at t_end where that root is nearer
      t_end; otherwise t_end is evaluated only if an iterate reaches it.
      Delta = 1 + 4u/(1 - 2u), and the residual reported |c0 + R(t)|; a
      residual at t_end that is not negative sends the solve to w.
    - Otherwise in w = log b = log(2 A delta) on [0, log A], with the
      residual c0 + R(t) wherever delta takes the half-point form and c0
      at the upper end delta = 1/2.  Mapping w through expm1 keeps the
      reported Delta <= 2A - 1, strictly inside for as long as doubles
      can represent the margin.  The residual at the feasibility edge
      w = 0 is compared with its roundoff bound, a few ulp of the sum of
      the magnitudes of its terms: within it the edge is returned as it
      is, clearly above it BracketError is raised, and otherwise Newton
      starts there, from its residual and slope.

    Either way Delta <= 2A - 1, and evals counts every residual evaluation.
    Near onset c0 = O(A - A_c) is formed from terms of order one, and
    its roundoff sets the accuracy: at most _ROUNDOFF (1 + |log(g_{m+1,1}
    /g_{n+1,1})| + (n-m) |log 2A|), the 1 for the relative error of the
    two coefficients.  The root t moves by that bound over the slope,
    about c0/t, and eps = log Delta ~ 4 sqrt(t) by half as much, so eps
    carries a relative error of at most that bound over 2 c0, besides
    the rounding of Delta itself.

    est_error is the final bracket's width plus that bound over the
    residual's slope at the returned end, in Delta (|w| <= log 2A bounds
    the term (n-m) log b); 0 on the trivial branch.
    """
    if not 0.0 < A < math.inf:
        raise ValueError("A must be positive and finite")
    n, m = _require_mie(spec)
    two_a = 2.0 * A
    la = math.log(two_a)
    lg, slope0, u_edge = _pair_constants(n, m)
    c0 = lg + (n - m) * la
    if not c0 > 0.0:
        return DeltaSolution(A, 1.0, 0.0, "trivial")
    u_end = min(0.5 - 0.5 / A, u_edge)     # the t-form's range, as above
    t_end = u_end * u_end
    bound = _ROUNDOFF * (1.0 + abs(lg) + (n - m) * abs(la))   # of c0
    tried = 0
    if c0 < -slope0 * t_end:                # first-order root inside
        f = partial(_half_point_residual, n, m, c0)
        start = (c0, slope0)
        # from t_end, evaluated first, where the root may lie past it
        t, rt, tried = (0.0, start, 0) if c0 < -0.5 * slope0 * t_end else (t_end, f(t_end), 1)
        t, r, t_other, evals = _newton(f, t_end, 0.0, start, t, rt)
        tried += evals
        if t is not None:
            u = math.sqrt(t)
            v = 1.0 - 2.0 * u                   # dDelta/dt = 2 / (u v^2)
            est = _error_estimate(abs(t - t_other), bound, r[1], 2.0 / (u * v * v))
            return DeltaSolution(A, 1.0 + 4.0 * u / v, abs(r[0]), "bipartite", tried, est)
    f_lo, d_lo, *terms = _log_stationarity(n, m, 1.0 / two_a, 0.0)
    d_lo = d_lo / two_a + (n - m)           # in w: delta d/d delta + d/d log b
    scale = sum(map(abs, terms))
    if abs(f_lo) <= _ROUNDOFF * scale:
        # the edge solves the condition to working precision
        return DeltaSolution(A, two_a - 1.0, abs(f_lo), "bipartite", tried + 1,
                             _error_estimate(0.0, bound, d_lo, two_a))
    if not f_lo < 0.0:
        raise BracketError(
            f"stationarity bracket failed at A={A!r}: f(edge)={f_lo:g} "
            f"(roundoff bound {_ROUNDOFF * scale:g})")
    # at the upper end, delta = 1/2, the residual is c0 and its slope 0
    w, r, w_other, evals = _newton(
        lambda w: _free_residual(n, m, c0, math.exp(w) / two_a, w),
        0.0, math.log(A), (c0, 0.0), 0.0, (f_lo, d_lo))
    Delta = (two_a - 1.0) + two_a * math.expm1(-w)
    if Delta <= 1.0:
        # only should the bracket close on the symmetric end; keep the
        # invariant branch=trivial <=> Delta=1
        return DeltaSolution(A, 1.0, 0.0, "trivial")
    return DeltaSolution(A, Delta, abs(r[0]), "bipartite", tried + evals + 1,
                         _error_estimate(abs(w - w_other), bound, r[1], two_a * math.exp(-w)))


def delta_sweep(spec: PotentialSpec, A_grid) -> list[DeltaSolution]:
    """solve_delta across a grid of spacings."""
    return [solve_delta(spec, float(A)) for A in A_grid]


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced points from start to stop by numpy.linspace's
    formula, i*step + start with the last point set to stop, so the
    points equal numpy's bit for bit."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    points = [i * step + start for i in range(count)]
    points[-1] = stop
    return points


def _geomspace(start: float, stop: float, count: int) -> list[float]:
    """count geometrically spaced points from start > 0 to stop by
    numpy.geomspace's formula, 10**v over a linspace of log10, with both
    ends set exactly.  numpy's log10 and pow may round differently from
    math's, so a point can differ from numpy's by a few ulps."""
    points = [10.0 ** v for v in _linspace(math.log10(start), math.log10(stop), count)]
    points[0] = start
    if count > 1:
        points[-1] = stop
    return points


def _fit_grid(window: tuple[float, float], n_points: int) -> list[float]:
    """The geometric grid of n_points offsets across window = (lo, hi)."""
    if not 0.0 < window[0] < window[1] < math.inf:
        raise ValueError("bad window")
    if n_points < _MIN_FIT_POINTS:
        raise ValueError(f"fits need at least {_MIN_FIT_POINTS} points")
    return _geomspace(float(window[0]), float(window[1]), n_points)


def _power_law_fit(xs, ys, window: tuple[float, float], theory_exponent: float,
                   theory_prefactor: float, junctions: tuple = ()) -> PowerLawFit:
    """Least-squares line through (log x, log y), and its pinned-slope amplitude."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mean_x = math.fsum(lx) / n
    mean_y = math.fsum(ly) / n
    dx = [x - mean_x for x in lx]
    dy = [y - mean_y for y in ly]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = math.fsum(d * d for d in dy)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    pinned = math.exp(math.fsum(y - theory_exponent * x for x, y in zip(lx, ly)) / n)
    return PowerLawFit(
        exponent=slope, prefactor=math.exp(intercept), r_squared=r2,
        window=(float(window[0]), float(window[1])), n_points=n,
        theory_exponent=theory_exponent, theory_prefactor=theory_prefactor,
        prefactor_at_theory_exponent=pinned,
        xs=tuple(xs), ys=tuple(ys), junctions=junctions)


def fit_beta(spec: PotentialSpec, window: tuple[float, float] = (1e-8, 1e-4),
             n_points: int = 20) -> PowerLawFit:
    """Power-law fit of Delta - 1 against A - A_c just above the crossing.

    The analytic prediction is exponent 1/2 with amplitude
    sqrt(-E2'(A_c) / (2 E4(A_c))).
    """
    from .landau import E2_slope_closed, landau_closed     # landau imports this module
    xs = _fit_grid(window, n_points)
    A_c = _critical_A(*_require_mie(spec))
    ys = []
    for x in xs:
        sol = solve_delta(spec, A_c + x)
        if sol.branch != "bipartite":
            raise BracketError(f"window point A_c+{x:g} resolved as trivial")
        ys.append(sol.Delta - 1.0)
    e4 = landau_closed(spec, A_c).E4
    amp = math.sqrt(-E2_slope_closed(spec, A_c) / (2.0 * e4))
    return _power_law_fit(xs, ys, window, 0.5, amp)
