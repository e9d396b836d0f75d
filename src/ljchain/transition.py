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
_log_stationarity evaluates the condition for any log b; the hard-core
junction is the same equation with b = sigma and imports it from here.

solve_delta forms c0 once.  Where c0 <= 0 the only solution is the
symmetric one, Delta = 1.  Otherwise it finds the root with Brent's
method (_zeroin, also used for the junction): secant and inverse
quadratic steps from the residuals at the ends of a verified bracket,
falling back to bisection when they would not shrink it fast enough,
until the residual is exactly zero or no double lies between the
bracket ends.  Near onset the variable is t, in which c0 + R(t) is
linear to first order; elsewhere w = log b, whose upper end delta = 1/2
has the residual c0 and whose lower end w = 0 is the feasibility edge
Delta = 2A - 1.  When the residual there is within its roundoff bound
the edge itself is the answer.

The solver feeds the sweep, the energy-curve assembly, and the critical
exponent fit of Delta - 1 against A - A_c.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .potential import PotentialSpec
from .energy import equidistant_energy, bipartite_energy
from .landau import E2_slope_closed, landau_closed, _critical_A
from .specfun import half_point_log_ratio, half_point_odd_head, small_gap_odd_series

__all__ = [
    "BracketError",
    "DeltaSolution",
    "PowerLawFit",
    "EnergyCurveRow",
    "stationarity_residual",
    "solve_delta",
    "delta_sweep",
    "fit_beta",
    "energy_curve",
]

_EPS = sys.float_info.epsilon
_TINY = math.ulp(0.0)
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


class BracketError(RuntimeError):
    """Raised when a root bracket that should exist fails to verify."""


class DeltaSolution(namedtuple("DeltaSolution", "A Delta residual branch evals")):
    __slots__ = ()

    def __new__(cls, A: float, Delta: float, residual: float, branch: str,
                evals: int = 0):
        # branch: trivial | bipartite | boundary; evals: residual
        # evaluations, bracket checks included
        if branch not in ("trivial", "bipartite", "boundary"):
            raise ValueError(f"unknown branch {branch!r}")
        if not Delta >= 1.0:
            raise ValueError("solutions are reported with Delta >= 1")
        return super().__new__(cls, A, Delta, residual, branch, evals)


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


class EnergyCurveRow(namedtuple("EnergyCurveRow", (
        "A", "E_ground", "E_equidistant_continuation",
        "phase",                    # equidistant | bipartite
        "Delta"))):
    __slots__ = ()


def _require_mie(spec: PotentialSpec) -> tuple[float, float]:
    if spec.mie is None:
        raise ValueError("stationarity machinery requires an n-m potential")
    return spec.mie


def _log_stationarity(n: float, m: float, delta: float,
                      logb: float) -> tuple[float, float]:
    """The log-form stationarity residual and the size of its terms.

    One function of the sublattice offset delta and of log b, where b is
    the short gap: b = 2A delta on the free chain, b = sigma on the
    hard-core junction.  The residual is

        log D_{m+1}(delta) - log D_{n+1}(delta) - (m-n) log(b/delta)

    with each log D_s formed without cancellation in one of two ways
    (_half_point_form picks one per exponent).  Near the symmetric point,
    log D_s = log(2u S_s(u)) = log(4u g_{s,1}) + the log ratio in t = u^2;
    with both exponents in this form the log(4u) terms cancel exactly.
    Elsewhere, the direct form log D_s = -s log delta + log(delta^s D_s)
    (_log_direct): for large s wherever delta^-s outweighs the mirror
    term, s log((1-delta)/delta) >= log 2, so that forming the difference
    loses less than one bit while the half-point series of an exponent
    in the hundreds would run out of terms; for smaller s below
    delta = 1/3, where the series in delta converges faster than the one
    in u.  When both exponents take the direct form the log delta terms
    cancel exactly.  The second value is the sum of the magnitudes of
    the terms the residual adds up, the log delta terms of a mixed pair
    included, which sets how far from zero roundoff alone can move it.
    """
    u = 0.5 - delta
    if _half_point_form(n + 1.0, delta):
        head = _half_point_residual(n, m, _log_g1_ratio(n, m), u * u)
        ldelta = math.log(delta)
        return (head + (n - m) * (logb - ldelta),
                abs(head) + abs(n - m) * (abs(logb) + abs(ldelta)))
    lin = (n - m) * logb
    tn = _log_direct(n + 1.0, delta)
    if _half_point_form(m + 1.0, delta):
        # only the larger exponent takes the direct form
        hm = math.log(4.0 * u * half_point_odd_head(m + 1.0)[0]) \
            + half_point_log_ratio(m + 1.0, u * u)
        lm = (m + 1.0) * math.log(delta)
        return hm + lm - tn + lin, abs(hm) + abs(lm) + abs(tn) + abs(lin)
    tm = _log_direct(m + 1.0, delta)
    return lin + tm - tn, abs(lin) + abs(tm) + abs(tn)


def _log_g1_ratio(n: float, m: float) -> float:
    """log(g_{m+1,1}/g_{n+1,1}) = log(S_{m+1}(0)/S_{n+1}(0))."""
    return math.log(half_point_odd_head(m + 1.0)[0] / half_point_odd_head(n + 1.0)[0])


def _half_point_residual(n: float, m: float, c: float, t: float) -> float:
    """c + R(t): with c = c0 the free chain's residual, with c =
    _log_g1_ratio log(S_{m+1}(u)/S_{n+1}(u)); R(0) = 0."""
    return c + half_point_log_ratio(m + 1.0, t) - half_point_log_ratio(n + 1.0, t)


def _free_residual(n: float, m: float, c0: float, delta: float, logb: float) -> float:
    """The free chain's residual, b = 2A delta: c0 + R(t) where delta
    takes the half-point form, log(b/delta) = log 2A exact inside c0;
    elsewhere log b as given, which w itself keeps exact near the edge."""
    if _half_point_form(n + 1.0, delta):
        u = 0.5 - delta
        return _half_point_residual(n, m, c0, u * u)
    return _log_stationarity(n, m, delta, logb)[0]


def _log_direct(s: float, delta: float) -> float:
    """log(delta^s D_s(delta)) = log1p(-delta^s V_s(delta)), delta <= 1/2.

    delta^s V_s is summed as the small-gap series for s below
    _MIRROR_SUM_MIN_S, and otherwise term by term as the mirror sum
    sum_{j>=1} (delta/(j-delta))^s - (delta/(j+delta))^s, whose j-th
    pair is below j^-s times its first term: a few pairs where the
    series would need hundreds of terms.
    """
    if s < _MIRROR_SUM_MIN_S:
        return math.log1p(-delta ** s * small_gap_odd_series(s, delta))
    x = 0.0
    j = 1.0
    while True:
        pair = (delta / (j - delta)) ** s - (delta / (j + delta)) ** s
        x += pair
        if pair <= _MIRROR_SUM_STOP * x:
            return math.log1p(-x)
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


def _half_point_edge(s: float) -> float:
    """u = 1/2 - delta at the far edge of _half_point_form(s, .)."""
    if s < _MIRROR_SUM_MIN_S:
        return 0.5 - _HALF_POINT
    e = math.expm1(_LOG2 / s)
    return 0.5 * e / (2.0 + e)


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
    return _free_residual(n, m, _log_g1_ratio(n, m) + (n - m) * la, delta,
                          la + math.log(delta))


def _zeroin(f, a: float, b: float, fa: float, fb: float) -> tuple[float, float, int]:
    """Root of f in the verified bracket [a, b] by Brent's method.

    Brent, "Algorithms for Minimization without Derivatives" (1973),
    ch. 4: secant or inverse quadratic steps from the computed endpoint
    residuals, with a bisection whenever a step would not shrink the
    bracket fast enough.  fa must be nonzero and fb zero or of the
    opposite sign.  Stops on an exactly zero residual or when no double
    lies strictly between the bracket ends.  Returns the end on b's side
    of the root (its residual is zero or has fb's sign), that residual,
    and the number of evaluations of f made here.
    """
    a_neg = fa < 0.0
    evals = 0
    # xcur: best estimate, xblk: the other end of the bracket,
    # xpre: previous estimate; spre, scur: the last two step lengths
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk, fblk = a, fa
    spre = scur = b - a
    while fcur != 0.0:
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        sbis = 0.5 * (xblk - xcur)
        if xcur + sbis in (xcur, xblk):
            break                               # a one-ulp bracket
        tol = max(2.0 * _EPS * abs(xcur), _TINY)
        if abs(sbis) > tol and abs(spre) > tol and abs(fcur) < abs(fpre):
            # divided differences first: a product of two residuals
            # underflows where the root sits at w ~ 1e-200
            dpre = (fpre - fcur) / (xpre - xcur)
            stry = math.inf                     # no usable step: bisect
            if xpre == xblk:                    # secant
                if dpre != 0.0:
                    stry = -fcur / dpre
            else:                               # inverse quadratic
                dblk = (fblk - fcur) / (xblk - xcur)
                # equal or flat residuals, or a product that underflows
                if fblk != fpre and dblk * dpre != 0.0:
                    stry = -fcur * ((fblk * dblk - fpre * dpre) / (fblk - fpre)) \
                        / (dblk * dpre)
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > tol or abs(sbis) <= tol:
            xcur += scur
        else:                                   # at least tol toward xblk
            xcur += math.copysign(tol, sbis)
        fcur = f(xcur)
        evals += 1
    if fcur != 0.0 and (fcur < 0.0) == a_neg:
        return xblk, fblk, evals
    return xcur, fcur, evals


def solve_delta(spec: PotentialSpec, A: float) -> DeltaSolution:
    """Optimal gap ratio of the two-periodic chain at half-spacing A.

    c0 = log(g_{m+1,1}/g_{n+1,1}) + (n-m) log 2A is the residual at the
    symmetric point delta = 1/2.  Where c0 <= 0 the chain stays
    symmetric: the trivial branch, Delta = 1, with no evaluation.

    Above onset the root is found in one of two variables, by Brent's
    method (_zeroin), which stops on an exactly zero residual or a
    one-ulp bracket; the end of the final bracket whose residual is
    nonnegative is returned.

    - In t = u^2, u = 1/2 - delta, when the first-order root
      c0 / (4 (g_{n+1,3}/g_{n+1,1} - g_{m+1,3}/g_{m+1,1})) lies inside
      the range where both exponents take the half-point form and Delta
      is feasible.  The bracket is [0, t_end], t_end that range's far
      end: the half-point edge or the feasibility edge, whichever is
      nearer delta = 1/2.  Its residual at t = 0 is c0, which costs no
      evaluation.  Delta = 1 + 4u/(1 - 2u), and the reported residual
      is |c0 + R(t)| at the returned t, R(t) the difference of the two
      log ratios.  Should the residual at t_end not be negative, the
      solve continues in w.
    - Otherwise in w = log b = log(2 A delta) on [0, log A], with the
      residual c0 + R(t) wherever delta takes the half-point form.  The
      upper end is delta = 1/2, whose residual c0 costs no evaluation.
      Mapping w through expm1 keeps the reported Delta <= 2A - 1,
      strictly inside for as long as doubles can represent the margin
      at all.  The lower end w = 0 is the feasibility edge Delta =
      2A - 1.  Its residual (_log_stationarity) is compared with its
      roundoff bound, a few ulp of the sum of the magnitudes of the
      residual's terms.  Within the bound the edge solves the condition
      to working precision and is returned as it is; clearly above it
      the bracket fails and BracketError is raised.

    Either way Delta <= 2A - 1.  evals counts every residual
    evaluation, the one at t_end and the edge check in w included.

    Near onset c0 = O(A - A_c) is formed from terms of order one, and
    its roundoff sets the accuracy: at most _ROUNDOFF (1 + |log(g_{m+1,1}
    /g_{n+1,1})| + (n-m) |log 2A|), the 1 for the relative error of the
    two coefficients.  The root t moves by that bound over the slope,
    about c0/t, and eps = log Delta ~ 4 sqrt(t) by half as much, so eps
    carries a relative error of at most that bound over 2 c0, besides
    the rounding of Delta itself.
    """
    if not 0.0 < A < math.inf:
        raise ValueError("A must be positive and finite")
    n, m = _require_mie(spec)
    two_a = 2.0 * A
    la = math.log(two_a)
    gm, rm = half_point_odd_head(m + 1.0)
    gn, rn = half_point_odd_head(n + 1.0)
    c0 = math.log(gm / gn) + (n - m) * la
    if not c0 > 0.0:
        return DeltaSolution(A, 1.0, 0.0, "trivial")
    # the t-form holds up to the half-point edge or the feasibility
    # edge, whichever is nearer delta = 1/2
    u_end = min(0.5 - 0.5 / A, _half_point_edge(n + 1.0))
    t_end = u_end * u_end
    tried = 0
    if c0 < 4.0 * (rn - rm) * t_end:        # first-order root inside
        f_end = _half_point_residual(n, m, c0, t_end)
        if f_end < 0.0:
            t, f_t, evals = _zeroin(lambda t: _half_point_residual(n, m, c0, t),
                                    t_end, 0.0, f_end, c0)
            u = math.sqrt(t)
            return DeltaSolution(A, 1.0 + 4.0 * u / (1.0 - 2.0 * u), abs(f_t),
                                 "bipartite", evals + 1)
        tried = 1
    f_lo, scale = _log_stationarity(n, m, 1.0 / two_a, 0.0)
    if abs(f_lo) <= _ROUNDOFF * scale:
        # the edge solves the condition to working precision
        return DeltaSolution(A, two_a - 1.0, abs(f_lo), "bipartite", tried + 1)
    if not f_lo < 0.0:
        raise BracketError(
            f"stationarity bracket failed at A={A!r}: f(edge)={f_lo:g} "
            f"(roundoff bound {_ROUNDOFF * scale:g})")
    # the upper end is delta = 1/2, where the residual is c0
    w, f_w, evals = _zeroin(lambda w: _free_residual(n, m, c0, math.exp(w) / two_a, w),
                            0.0, math.log(A), f_lo, c0)
    Delta = (two_a - 1.0) + two_a * math.expm1(-w)
    if Delta <= 1.0:
        # only should the bracket close on the symmetric end; keep the
        # invariant branch=trivial <=> Delta=1
        return DeltaSolution(A, 1.0, 0.0, "trivial")
    return DeltaSolution(A, Delta, abs(f_w), "bipartite", tried + evals + 1)


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
