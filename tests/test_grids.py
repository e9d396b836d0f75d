"""The pure-Python grids and Gauss-Kronrod constants against numpy.

The package computes its grids without numpy, by numpy's own formulas.
linspace points equal numpy's bit for bit.  geomspace takes log10 and
pow from math, which round differently from numpy's, so its points
equal numpy's on every default and golden grid but elsewhere only
within a bound in the log domain, tested here.
"""

import math
import random

import numpy as np
import pytest

from ljchain import cli, validate
from ljchain.quadrature import _WG, _WGK, _XGK
from ljchain.transition import _fit_grid, _geomspace, _linspace

EPS = np.finfo(float).eps


def _rule(nodes, weights):
    """Full [-1, 1] rule from the nonnegative half, x_0 = 0 first."""
    xs = [-x for x in reversed(nodes[1:])] + list(nodes)
    ws = list(reversed(weights[1:])) + list(weights)
    return xs, ws


def _moment_misses(xs, ws, kmax):
    """|rule(x^k) - int_{-1}^{1} x^k dx| for k <= kmax."""
    for k in range(kmax + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        yield abs(math.fsum(w * x ** k for x, w in zip(xs, ws)) - exact)


def _ulps(a, b):
    return abs(a - b) / np.spacing(abs(b)) if a != b else 0.0


def test_gauss_kronrod_constants_integrate_polynomials():
    # K15 is exact through degree 3*7 + 1 = 22, G7 through 2*7 - 1 = 13
    kronrod = _rule(_XGK, _WGK)
    gauss = _rule(_XGK[::2], _WG)
    assert len(kronrod[0]) == 15 and len(gauss[0]) == 7
    assert max(_moment_misses(*kronrod, 22)) <= 4 * EPS
    assert max(_moment_misses(*gauss, 13)) <= 4 * EPS
    # and not beyond: the degrees are sharp
    assert max(_moment_misses(*kronrod, 24)) > 1e-12
    assert max(_moment_misses(*gauss, 14)) > 1e-12


def test_gauss_nodes_and_weights_are_leggauss_7():
    # numpy's own weights are off by up to 4 ulp (0.27970539148927687
    # against the correctly rounded ...664), hence their wider bound;
    # the mpmath test below holds ours to 1 ulp of the exact values
    nodes, weights = np.polynomial.legendre.leggauss(7)
    xs, ws = _rule(_XGK[::2], _WG)
    assert max(_ulps(a, b) for a, b in zip(xs, nodes.tolist())) <= 2
    assert max(_ulps(a, b) for a, b in zip(ws, weights.tolist())) <= 8


def test_gauss_nodes_and_weights_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x, w in zip(_XGK[::2], _WG):
            root = mpmath.findroot(lambda t: mpmath.legendre(7, t), x)
            slope = mpmath.diff(lambda t: mpmath.legendre(7, t), root)
            weight = 2 / ((1 - root ** 2) * slope ** 2)
            assert _ulps(x, float(root)) <= 1
            assert _ulps(w, float(weight)) <= 1


def test_linspace_matches_numpy_on_random_grids():
    rng = random.Random(17)
    for _ in range(2000):
        start = rng.uniform(-1e3, 1e3)
        stop = start + rng.uniform(0.0, 1e3) * rng.choice((1e-6, 1.0, 1e6))
        count = rng.randint(1, 300)
        assert _linspace(start, stop, count) == np.linspace(start, stop, count).tolist()


# every --a grid the CLI or the golden files use, as the CLI parses it
CLI_GRIDS = [
    "0.9:2.0:111",      # energy-curve
    "6.5:30:95",        # phase-diagram
    "1.0:3.0:41",       # delta-sweep, and validate's sweep check
    "1.1:3.0:39",       # hardcore-sweep
    "1.0:3.0:21",       # golden hardcore-sweep-sigma1.2
    "1.0:3.0:11",       # golden hardcore-sweep-sigma1.5
    "1.0:2000:30",      # golden delta-sweep-mie100-99
    "0.8:3.0:5",        # validate's cross-method grid, A
    "1.0:4.0:5",        # validate's cross-method grid, Delta
]

# every fit window and point count of the CLI defaults, the golden files,
# validate and the tests that pin a fit's points
FIT_GRIDS = [
    ((1e-8, 1e-4), 20),     # beta-fit
    ((1e-12, 1e-9), 12),    # tau-fit
    ((1e-6, 1e-3), 9),      # golden beta-fit-mie7-6
    ((1e-10, 1e-6), 8),     # golden tau-fit-mie8-6
    ((1e-7, 1e-5), 10),     # test_beta_fit_keeps_its_points
]


@pytest.mark.parametrize("text", CLI_GRIDS)
def test_cli_grids_match_numpy(text):
    start, stop, count = (float(v) for v in text.split(":"))
    assert cli._grid(text) == np.linspace(start, stop, int(count)).tolist()


@pytest.mark.parametrize("window,count", FIT_GRIDS)
def test_fit_grids_match_numpy(window, count):
    assert _fit_grid(window, count) == np.geomspace(*window, count).tolist()
    text = f"{window[0]!r}:{window[1]!r}:{count}:log"
    assert cli._grid(text) == np.geomspace(*window, count).tolist()


def test_geomspace_within_log_domain_bound():
    # the endpoints' log10 agree to an ulp of M = max |log10 end|, which
    # moves a point by about ln(10) M eps relative, and pow adds an ulp:
    # points stay within 2 eps (1 + ln(10) M) of numpy's.  Over 20,000
    # such windows the largest seen was 0.97 eps (1 + ln(10) M), 34 ulps
    rng = random.Random(3)
    moved = 0
    for _ in range(3000):
        lo, hi = sorted(10.0 ** rng.uniform(-16.0, 9.0) for _ in range(2))
        count = rng.randint(2, 200)
        ours = _geomspace(lo, hi, count)
        ref = np.geomspace(lo, hi, count).tolist()
        assert (ours[0], ours[-1]) == (lo, hi)
        M = max(abs(math.log10(lo)), abs(math.log10(hi)))
        bound = 2.0 * EPS * (1.0 + math.log(10.0) * M)
        for a, b in zip(ours, ref):
            assert abs(a / b - 1.0) <= bound
            moved += a != b
    assert moved > 0        # the bound is exercised, not vacuous


def test_geomspace_single_point():
    assert _geomspace(3.0, 7.0, 1) == np.geomspace(3.0, 7.0, 1).tolist()
    assert _linspace(3.0, 7.0, 1) == np.linspace(3.0, 7.0, 1).tolist()


def test_quartic_certificate_grid_is_numpys_arange(monkeypatch):
    seen = {}

    def scan(xs, ints):
        seen["xs"], seen["ints"] = list(xs), list(ints)
        raise RuntimeError("grids captured")

    monkeypatch.setattr(validate, "tricritical_scan", scan)
    with pytest.raises(RuntimeError):
        validate._check_quartic_certificate()
    assert seen["xs"] == np.arange(1.01, 60.0 + 1e-9, 0.01).tolist()
    assert seen["ints"] == np.arange(2.0, 15.0).tolist()
