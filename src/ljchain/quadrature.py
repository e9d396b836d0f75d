"""Globally adaptive Gauss-Kronrod integration on a logarithmic axis.

All integrals in this package are Laplace-type, over t in (0, inf) with
integrands that decay exponentially on both ends once written in
u = log t.  The integrator lays down width-2 panels expanding in both
directions from a caller-supplied center (usually the Poisson switch
point of the theta factor) until the contributions die out.  Each panel
carries its 15-point Kronrod value and, as its error, the distance to
the embedded 7-point Gauss value; the panel with the largest error is
bisected until the errors sum to the tolerance: QUADPACK's QAG scheme
(Piessens et al., QUADPACK, Springer 1983) on Kronrod's 7/15 pair.
"""

from __future__ import annotations

import math

__all__ = ["QuadratureError", "integrate_log_axis"]

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


class QuadratureError(RuntimeError):
    """Raised when the adaptive integrator cannot reach its tolerance."""


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
