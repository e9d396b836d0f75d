"""Residual evaluations per solve, on the grids the count tests use.

    PYTHONPATH=src python tests/evalcounts.py

prints the median and the largest DeltaSolution.evals per pair and
region, and JunctionPoint.evals per junction window, so that changes to
the solvers cite one grid.  The count tests in test_transition.py and
test_hardcore.py import their grids from here.
"""

from __future__ import annotations

import math
import random
import statistics

from ljchain.hardcore import HardCoreConfig, junction
from ljchain.landau import critical_point
from ljchain.potential import mie_potential
from ljchain.transition import _geomspace, solve_delta

SMALL_PAIRS = [(12, 6), (7, 6), (8, 6), (6, 3)]
CLOSE_PAIR = (100, 99)
# the two ranges of A of the w solve, 200 log-uniform points each
W_RANGES = [(1.2, 3.0), (3.0, 1e4)]
W_POINTS = 200
W_SEED = 5
# A/A_c - 1 near onset, where the solve runs in t
ONSET_OFFSETS = (1e-14, 1e-3, 60)
# (pair, sigma - 1 window): the default tau-fit window, and the golden one
JUNCTION_WINDOWS = [((12, 6), (1e-12, 1e-9)), ((8, 6), (1e-12, 1e-9)),
                    ((8, 6), (1e-10, 1e-6)), ((6, 2), (1e-12, 1e-9))]
JUNCTION_POINTS = 12


def w_grid(lo: float, hi: float) -> list[float]:
    """W_POINTS log-uniform spacings in [lo, hi], the same for every pair."""
    rng = random.Random(W_SEED)
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(W_POINTS)]


def onset_grid(n: float, m: float) -> list[float]:
    """Spacings A_c (1 + x) for x log-spaced over ONSET_OFFSETS."""
    A_c = critical_point(mie_potential(n, m)).A_c
    return [A_c * (1.0 + x) for x in _geomspace(*ONSET_OFFSETS)]


def junction_grid(lo: float, hi: float) -> list[float]:
    """Hard-core radii 1 + x for x log-spaced over [lo, hi]."""
    return [1.0 + x for x in _geomspace(lo, hi, JUNCTION_POINTS)]


def delta_evals(n: float, m: float, grid) -> list[int]:
    """evals of the bipartite solves over grid."""
    spec = mie_potential(n, m)
    sols = (solve_delta(spec, A) for A in grid)
    return [s.evals for s in sols if s.branch == "bipartite"]


def junction_evals(n: float, m: float, grid) -> list[int]:
    spec = mie_potential(n, m)
    return [junction(HardCoreConfig(spec, sigma)).evals for sigma in grid]


def _row(n: float, m: float, region: str, evals: list[int]) -> str:
    return f"{f'({n},{m})':<9}{region:<22}{statistics.median(evals):>6g} {max(evals):>4}"


def main() -> None:
    print(f"{'pair':<9}{'region':<22}median  max")
    for n, m in SMALL_PAIRS + [CLOSE_PAIR]:
        rows = [("onset", onset_grid(n, m))]
        rows += [(f"{lo:g} <= A <= {hi:g}", w_grid(lo, hi)) for lo, hi in W_RANGES]
        for region, grid in rows:
            print(_row(n, m, region, delta_evals(n, m, grid)))
    for (n, m), (lo, hi) in JUNCTION_WINDOWS:
        print(_row(n, m, f"junction {lo:g}:{hi:g}", junction_evals(n, m, junction_grid(lo, hi))))


if __name__ == "__main__":
    main()
