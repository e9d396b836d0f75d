"""Adaptive Gauss-Legendre integration on a logarithmic axis.

All integrals in this package are Laplace-type, over t in (0, inf) with
integrands that decay exponentially on both ends once written in
u = log t.  The integrator lays down unit-ish panels expanding in both
directions from a caller-supplied center (usually the Poisson switch
point of the theta factor) until the contributions die out, then refines
each panel by bisection until a whole-vs-halves comparison passes.
"""

from __future__ import annotations

__all__ = ["QuadratureError", "integrate_log_axis"]

# 15-point Gauss-Legendre rule on [-1, 1], the reprs of the doubles that
# numpy.polynomial.legendre.leggauss(15) returns
_NODES = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854,
)
_WEIGHTS = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)

_PANEL_WIDTH = 2.0
_MAX_PANELS = 400          # per direction; decay guarantees far fewer
_MAX_DEPTH = 28


class QuadratureError(RuntimeError):
    """Raised when the adaptive integrator cannot reach its tolerance."""


def _panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0.0
    for x, w in zip(_NODES, _WEIGHTS):
        acc += w * f(mid + half * x)
    return half * acc


def _refine(f, a: float, b: float, whole: float, tol: float, depth: int) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    err = abs(whole - left - right)
    if err <= tol:
        return left + right, err
    if depth >= _MAX_DEPTH:
        if err > 1e3 * tol:
            raise QuadratureError(
                f"no convergence on [{a:g}, {b:g}]: err {err:g} vs tol {tol:g}")
        return left + right, err
    vl, el = _refine(f, a, mid, left, 0.5 * tol, depth + 1)
    vr, er = _refine(f, mid, b, right, 0.5 * tol, depth + 1)
    return vl + vr, el + er


def integrate_log_axis(g, center: float, rel_tol: float = 1e-12) -> tuple[float, float]:
    """Integrate g(u) du over the whole real line.

    g must decay to zero in both directions from `center`.  Returns
    (value, est_error) where est_error accumulates the whole-vs-halves
    discrepancies of the accepted panels.  Raises QuadratureError if the
    integrand has not died out after _MAX_PANELS panels on a side or a
    panel will not converge.
    """
    panels: list[tuple[float, float, float]] = []
    acc = 0.0
    scale = 0.0
    for sgn in (1, -1):
        dead = 0
        i = 0
        while dead < 2:
            if i >= _MAX_PANELS:
                raise QuadratureError("integrand does not decay on the log axis")
            if sgn > 0:
                a = center + i * _PANEL_WIDTH
            else:
                a = center - (i + 1) * _PANEL_WIDTH
            rough = _panel(g, a, a + _PANEL_WIDTH)
            panels.append((a, a + _PANEL_WIDTH, rough))
            acc += rough
            scale = max(scale, abs(rough))
            if abs(rough) <= 1e-17 * max(scale, abs(acc)):
                dead += 1
            else:
                dead = 0
            i += 1
    tol = rel_tol * max(abs(acc), scale)
    if tol == 0.0:
        return 0.0, 0.0
    total = 0.0
    est = 0.0
    for a, b, rough in panels:
        v, e = _refine(g, a, b, rough, tol, 0)
        total += v
        est += e
    return total, est
