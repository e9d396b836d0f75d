"""The heat-kernel route: theta sums integrated on a logarithmic axis.

Each inverse power carries the Laplace weight t^{s/2-1}/Gamma(s/2),

    r^-s = int_0^inf exp(-r^2 t) w_s(t) dt,

so a lattice sum of inverse powers becomes an integral over t of a
theta sum, sum_j exp(-(j + offset)^2 x) at x proportional to t.  This
module holds that route whole: the weight, the theta sums and their
derivatives, the integrator, and the energies and Landau coefficients
it yields.  It exists to cross-check the closed zeta forms of `energy`
and `landau`, and only `ljchain validate` and the tests load it; no
solver or table subcommand does.

The theta sums are parameterized by the exponent x, i.e.
theta_offset(0, x) = theta3(x) = sum_j exp(-j^2 x), which is the natural
variable for heat-kernel representations (x = q-nome convention would
be exp(-x)).  theta_offset is accurate to rel 1e-14 at offsets 0 and 1/2
for x >= 1e-3, and theta2_derivatives to rel 1e-13 through order 8 (both
checked in the test suite).

All integrals are Laplace-type, over t in (0, inf) with integrands that
decay exponentially on both ends once written in u = log t.  The
integrator lays down width-2 panels expanding in both directions from a
caller-supplied center (usually the Poisson switch point of the theta
factor) until the contributions die out.  Each panel carries its
15-point Kronrod value and, as its error, the distance to the embedded
7-point Gauss value; the panel with the largest error is bisected until
the errors sum to the tolerance: QUADPACK's QAG scheme (Piessens et al.,
QUADPACK, Springer 1983) on Kronrod's 7/15 pair.
"""

from __future__ import annotations

import math

from .potential import PotentialSpec
from .energy import BipartiteChain, EnergyResult, _canonical_gap_ratio
from .landau import LandauCoefficients
from .specfun import SeriesError

__all__ = [
    "QuadratureError",
    "integrate_log_axis",
    "laplace_weight",
    "theta_offset",
    "bipartite_energy_quadrature",
    "landau_coefficients_quadrature",
]

# term limits of the dual theta sums below x = pi.  The dual argument
# pi^2/x exceeds pi there, so the sums stop by j = 4 (theta_offset) and
# j = 5 (theta2_derivatives); a sum that reaches its limit raises
_THETA_OFFSET_MAX_J = 80
_THETA_DERIVATIVE_MAX_J = 200

# The doubles nearest QUADPACK's dqk15 constants on [-1, 1], nonnegative
# half: the 15-point Kronrod nodes x_k (x_0 = 0, the rest used as ±x_k)
# and weights, and the weights of the 7-point Gauss rule on x_0, x_2, x_4, x_6
_XGK = (0.0, 0.20778495500789848, 0.4058451513773972, 0.5860872354676911,
        0.7415311855993945, 0.8648644233597691, 0.9491079123427585, 0.9914553711208126)
_WGK = (0.20948214108472782, 0.20443294007529889, 0.19035057806478542,
        0.1690047266392679, 0.14065325971552592, 0.10479001032225019,
        0.06309209262997856, 0.022935322010529224)
_WG = (0.4179591836734694, 0.3818300505051189, 0.27970539148927664, 0.1294849661688697)

_PANEL_WIDTH = 2.0
_MAX_PANELS = 400          # per direction; decay guarantees far fewer
_MIN_WIDTH = _PANEL_WIDTH / 2 ** 28     # narrower panels are not split
_MAX_SPLITS = 500          # a tolerance below roundoff is never met
_REL_TOL = 1e-11           # of each energy and Landau integral


class QuadratureError(RuntimeError):
    """Raised when the adaptive integrator cannot reach its tolerance."""


def laplace_weight(s: float, t: float) -> float:
    """Density t^(s/2-1)/Gamma(s/2) of the heat-kernel representation."""
    if not s > 0.0:
        raise ValueError("s must be positive")
    if not t > 0.0:
        raise ValueError("t must be positive")
    return t ** (0.5 * s - 1.0) / math.gamma(0.5 * s)


# ---------------------------------------------------------------------------
# theta sums.  Direct summation for x >= pi, Poisson resummation below;
# pi is the self-dual point of x -> pi^2/x so both branches converge at
# worst like exp(-pi * j^2).

_SWITCH = math.pi


def theta3_minus_one(x: float) -> float:
    """sum_{j in Z} exp(-j^2 x) - 1 without cancellation for large x."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"theta sums need 0 < x < inf, got x={x!r}")
    if x < _SWITCH:
        return theta_offset(0.0, x) - 1.0
    acc = 0.0
    j = 1
    while True:
        term = math.exp(-j * j * x)
        acc += term
        if term <= 1e-19 * acc:
            break
        j += 1
    return 2.0 * acc


def theta_offset(offset: float, x: float) -> float:
    """sum_{j in Z} exp(-(j + offset)^2 x) for any real offset.

    Offset 0 is theta3 and offset 1/2 is theta2.  The dual form is
    sqrt(pi/x) * sum_j cos(2 pi j offset) exp(-pi^2 j^2 / x).
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"theta sums need 0 < x < inf, got x={x!r}")
    c = offset - math.floor(offset)
    if x >= _SWITCH:
        # pair the tails going right from c and left from c-1
        acc = 0.0
        j = 0
        while True:
            t1 = math.exp(-(j + c) * (j + c) * x)
            h = j + 1.0 - c
            t2 = math.exp(-h * h * x)
            acc += t1 + t2
            if t1 + t2 <= 1e-19 * acc:
                break
            j += 1
        return acc
    y = math.pi * math.pi / x
    w = 2.0 * math.pi * c
    acc = 1.0
    j = 1
    while True:
        term = 2.0 * math.cos(j * w) * math.exp(-j * j * y)
        acc += term
        if abs(term) <= 1e-19 * abs(acc):
            break
        j += 1
        if j > _THETA_OFFSET_MAX_J:
            raise SeriesError(f"theta_offset: dual sum past {_THETA_OFFSET_MAX_J} "
                              f"terms at x={x!r}")
    return math.sqrt(math.pi / x) * acc


def theta2_derivatives(order: int, x: float) -> list[float]:
    """[theta2(x), theta2'(x), ..., d^order/dx^order theta2(x)] from one
    pass over the terms, theta2(x) = sum_{j in Z} exp(-(j + 1/2)^2 x).

    A higher order weights the later terms more, so the pass stops when
    the top order's term is negligible."""
    if not isinstance(order, int) or not 0 <= order <= 8:
        raise ValueError("order must be an integer in [0, 8]")
    if not 0.0 < x < math.inf:
        raise ValueError(f"theta sums need 0 < x < inf, got x={x!r}")
    acc = [0.0] * (order + 1)
    if x >= _SWITCH:
        # the r-th derivative of exp(-h^2 x) is (-h^2)^r exp(-h^2 x)
        j = 0
        while True:
            h2 = (j + 0.5) * (j + 0.5)
            z = h2 * x
            term = math.exp(-z)
            acc[0] += term
            for r in range(1, order + 1):
                term *= h2
                acc[r] += term
            if z > order and term <= 1e-20 * acc[order]:
                return [(-2.0 if r % 2 else 2.0) * a for r, a in enumerate(acc)]
            j += 1
    # the dual terms f = sqrt(pi/x) exp(-c/x), c = pi^2 j^2, solve
    # x^2 f' = (c - x/2) f; differentiated r times, that is the recurrence
    # x^2 f^(r+1) = (c - (2r + 1/2) x) f^(r) - r (r - 1/2) f^(r-1)
    root = math.sqrt(math.pi / x)
    x2 = x * x
    top = 0.0
    j = 0
    while True:
        c = math.pi * math.pi * j * j
        f = root * math.exp(-c / x) * (1.0 if j == 0 else -2.0 if j % 2 else 2.0)
        acc[0] += f
        prev = 0.0
        for r in range(order):
            f, prev = ((c - (2 * r + 0.5) * x) * f - r * (r - 0.5) * prev) / x2, f
            acc[r + 1] += f
        top = max(top, abs(f))
        if j >= 1 and abs(f) <= 1e-20 * max(top, 1e-300):
            return acc
        j += 1
        if j > _THETA_DERIVATIVE_MAX_J:
            raise SeriesError(f"theta2_derivatives: dual sum past "
                              f"{_THETA_DERIVATIVE_MAX_J} terms at x={x!r}")


def _panel(f, a: float, b: float) -> tuple[float, float, float, float]:
    """(|K15 - G7|, K15, a, b) of f on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kronrod = _WGK[0] * fc
    gauss = _WG[0] * fc
    for k in range(1, 8):
        dx = half * _XGK[k]
        pair = f(mid - dx) + f(mid + dx)
        kronrod += _WGK[k] * pair
        if k % 2 == 0:
            gauss += _WG[k // 2] * pair
    return half * abs(kronrod - gauss), half * kronrod, a, b


def integrate_log_axis(g, center: float, rel_tol: float = 1e-12) -> tuple[float, float]:
    """Integrate g(u) du over the whole real line.

    g must decay to zero in both directions from `center`.  Returns
    (value, est_error), est_error being the summed |K15 - G7| of the
    final panels, at most rel_tol * max(|value|, largest first-pass
    panel value).  Raises QuadratureError if the integrand has not died
    out after _MAX_PANELS panels on a side, or if meeting the tolerance
    would take splitting a panel narrower than _MIN_WIDTH or more than
    _MAX_SPLITS splits.
    """
    panels = []
    acc = 0.0
    scale = 0.0
    for sgn in (1, -1):
        dead = i = 0
        while dead < 2:
            if i >= _MAX_PANELS:
                raise QuadratureError("integrand does not decay on the log axis")
            a = center + (i if sgn > 0 else -i - 1) * _PANEL_WIDTH
            panels.append(_panel(g, a, a + _PANEL_WIDTH))
            value = panels[-1][1]
            acc += value
            scale = max(scale, abs(value))
            dead = dead + 1 if abs(value) <= 1e-17 * max(scale, abs(acc)) else 0
            i += 1
    splits = 0
    while True:
        err = math.fsum(p[0] for p in panels)
        value = math.fsum(p[1] for p in panels)
        tol = rel_tol * max(abs(value), scale)
        if err <= tol:
            return value, err
        worst = max(panels)
        _, _, a, b = worst
        if b - a < _MIN_WIDTH or splits == _MAX_SPLITS:
            raise QuadratureError(f"no convergence on [{a:g}, {b:g}] after {splits} "
                                  f"splits: err {err:g} vs tol {tol:g}")
        splits += 1
        panels.remove(worst)
        mid = 0.5 * (a + b)
        panels += (_panel(g, a, mid), _panel(g, mid, b))


# ---------------------------------------------------------------------------
# chain energies.  With x = 4 A^2 t the two-periodic lattice sum of r^-s
# is int [theta3(x) - 1 + theta_offset(delta, x)] / 2 w_s(t) dt


def _lattice_sum_quadrature(s: float, A: float, delta: float) -> tuple[float, float]:
    # int_0^inf [theta3m1(x)/2 + theta_offset(delta, x)/2] w_s(t) dt
    # with x = 4 A^2 t equals riesz_lattice_sum(s, A, Delta)
    c = 4.0 * A * A

    def g(u: float) -> float:
        t = math.exp(u)
        x = c * t
        f = 0.5 * theta3_minus_one(x) + 0.5 * theta_offset(delta, x)
        return f * laplace_weight(s, t) * t

    center = math.log(math.pi / c)
    return integrate_log_axis(g, center, _REL_TOL)


def bipartite_energy_quadrature(spec: PotentialSpec, A: float, Delta: float) -> EnergyResult:
    """Heat-kernel quadrature route to the two-periodic energy.

    Component-wise adaptive integration; est_error adds the integrator
    discrepancy estimates on top of a roundoff floor.  Raises
    QuadratureError when a component integral fails to converge.
    """
    BipartiteChain(A, Delta)                # checks A and Delta
    d = _canonical_gap_ratio(Delta)
    delta = 1.0 / (1.0 + d)
    acc = 0.0
    err = 0.0
    mag = 0.0
    for c in spec.components:
        v, e = _lattice_sum_quadrature(c.exponent, A, delta)
        acc += c.coefficient * v
        err += abs(c.coefficient) * e
        mag += abs(c.coefficient * v)
    return EnergyResult(acc, "quadrature", err + 1e-15 * mag)


def _quad_component(s: float, A: float) -> tuple[float, float, float, float]:
    # moment integrals of the staggered theta sum.  th(order, t) below
    # lists d^r/dt^r theta2(4 A^2 t) for r = 0..order; the weight
    # polynomials come from pushing the eps-expansion of the offset
    # through the heat kernel at fixed density.  Leading Poisson parts
    # cancel inside each combination.
    A2 = A * A
    c = 4.0 * A2
    powers = [c ** r for r in range(4)]

    def th(order: int, t: float) -> list[float]:
        return [p * d for p, d in zip(powers, theta2_derivatives(order, c * t))]

    u0 = math.log(math.pi / c)

    def g2(u: float) -> float:
        t = math.exp(u)
        th0, th1 = th(1, t)
        return (0.5 * t * th0 + t * t * th1) * laplace_weight(s, t) * t

    def g4(u: float) -> float:
        t = math.exp(u)
        t2 = t * t
        th0, th1, th2 = th(2, t)
        return ((t / 3.0 + A2 * t2 / 4.0) * th0
                + (2.0 * t2 / 3.0 + A2 * t2 * t) * th1
                + (A2 * t2 * t2 / 3.0) * th2) * laplace_weight(s, t) * t

    def g6(u: float) -> float:
        t = math.exp(u)
        t2 = t * t
        t3 = t2 * t
        t4 = t2 * t2
        A4 = A2 * A2
        th0, th1, th2, th3 = th(3, t)
        return ((17.0 * t / 1440.0 + A2 * t2 / 48.0 + A4 * t3 / 192.0) * th0
                + (17.0 * t2 / 720.0 + A2 * t3 / 12.0 + A4 * t4 / 32.0) * th1
                + (A2 * t4 / 36.0 + A4 * t4 * t / 48.0) * th2
                + (A4 * t4 * t2 / 360.0) * th3) * laplace_weight(s, t) * t

    v2, e2 = integrate_log_axis(g2, u0, _REL_TOL)
    v4, e4 = integrate_log_axis(g4, u0, _REL_TOL)
    v6, e6 = integrate_log_axis(g6, u0, _REL_TOL)
    E2 = -0.25 * A2 * v2
    E4 = A2 / 16.0 * v4
    E6 = -0.25 * A2 * v6
    err = 0.25 * A2 * e2 + A2 / 16.0 * e4 + 0.25 * A2 * e6
    return E2, E4, E6, err


def landau_coefficients_quadrature(spec: PotentialSpec, A: float) -> LandauCoefficients:
    """Heat-kernel quadrature route to E2, E4, E6.

    Independent of the closed forms (shares only the theta machinery);
    agrees with them to ~1e-12 relative in practice.  est_error sums the
    integrator's error estimates of E2, E4 and E6, each times the
    magnitude of its component's coefficient.
    """
    if not 0.0 < A < math.inf:
        raise ValueError("A must be positive and finite")
    e2 = e4 = e6 = est = 0.0
    for comp in spec.components:
        a2, a4, a6, err = _quad_component(comp.exponent, A)
        e2 += comp.coefficient * a2
        e4 += comp.coefficient * a4
        e6 += comp.coefficient * a6
        est += abs(comp.coefficient) * err
    # at Delta = 1 both gaps equal A: the equidistant chain
    eq = bipartite_energy_quadrature(spec, A, 1.0).value
    return LandauCoefficients(A, eq, e2, e4, e6, "quadrature", est)
