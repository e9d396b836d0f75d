"""Ground-state structure of one-dimensional inverse-power chains.

The package computes energies of equidistant and two-periodic particle
chains, locates the continuous symmetry-breaking transition between
them, expands the energy in the dimerization amplitude, and analyzes
the effect of a hard-core diameter.  Closed zeta-function forms,
heat-kernel quadrature, and direct summation provide three independent
routes to every quantity.
"""

from .potential import (
    RieszComponent,
    PotentialSpec,
    mie_potential,
    laplace_weight,
    parse_potential,
    format_potential,
)
from .energy import (
    BipartiteChain,
    EnergyResult,
    riesz_lattice_sum,
    equidistant_energy,
    equidistant_energy_quadrature,
    bipartite_energy,
    bipartite_energy_quadrature,
    find_A_min,
)
from .landau import (
    LandauCoefficients,
    TransitionPoint,
    TricriticalScanReport,
    landau_component_closed,
    landau_closed,
    landau_coefficients_quadrature,
    E2_slope_closed,
    critical_point,
    critical_point_limit_n_to_m,
    quartic_margin_ratio,
    tricritical_scan,
)
from .transition import (
    BracketError,
    DeltaSolution,
    PowerLawFit,
    EnergyCurveRow,
    stationarity_residual,
    solve_delta,
    delta_sweep,
    fit_beta,
    energy_curve,
)
from .hardcore import (
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
from .oracle import (
    direct_bipartite_sum,
    brute_force_energy,
    richardson_derivative,
)
from .quadrature import QuadratureError, integrate_log_axis
from .specfun import SeriesError

__version__ = "0.1.0"

__all__ = [
    "RieszComponent", "PotentialSpec", "mie_potential", "laplace_weight",
    "parse_potential", "format_potential",
    "BipartiteChain", "EnergyResult", "riesz_lattice_sum",
    "equidistant_energy", "equidistant_energy_quadrature",
    "bipartite_energy", "bipartite_energy_quadrature", "find_A_min",
    "LandauCoefficients", "TransitionPoint", "TricriticalScanReport",
    "landau_component_closed", "landau_closed",
    "landau_coefficients_quadrature", "E2_slope_closed", "critical_point",
    "critical_point_limit_n_to_m", "quartic_margin_ratio", "tricritical_scan",
    "BracketError", "SeriesError", "DeltaSolution", "PowerLawFit",
    "EnergyCurveRow",
    "stationarity_residual", "solve_delta", "delta_sweep", "fit_beta",
    "energy_curve",
    "HardCoreConfig", "JunctionPoint", "InfeasibleError", "NoJunctionError",
    "junction", "constrained_delta", "hardcore_sweep", "tau_theory_prefactor",
    "fit_tau",
    "direct_bipartite_sum", "brute_force_energy", "richardson_derivative",
    "QuadratureError", "integrate_log_axis",
    "__version__",
]
