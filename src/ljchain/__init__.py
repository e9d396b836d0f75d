"""Ground-state structure of one-dimensional inverse-power chains.

The package computes energies of equidistant and two-periodic particle
chains, locates the continuous symmetry-breaking transition between
them, expands the energy in the dimerization amplitude, and analyzes
the effect of a hard-core diameter.  The solvers run on closed
zeta-function forms; heat-kernel quadrature (`quadrature`) and direct
summation (`oracle`) are independent routes that the checks compare
against them.

The public names below are loaded on first access (PEP 562), so that
`import ljchain` and a command line process load only the modules they
use.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "RieszComponent": "potential", "PotentialSpec": "potential",
    "mie_potential": "potential", "parse_potential": "potential",
    "format_potential": "potential",
    "BipartiteChain": "energy", "EnergyResult": "energy",
    "EnergyCurveRow": "energy", "riesz_lattice_sum": "energy",
    "equidistant_energy": "energy", "bipartite_energy": "energy",
    "find_A_min": "energy", "energy_curve": "energy",
    "LandauCoefficients": "landau", "TransitionPoint": "landau",
    "TricriticalScanReport": "landau", "landau_component_closed": "landau",
    "landau_closed": "landau", "E2_slope_closed": "landau",
    "critical_point": "landau", "critical_point_limit_n_to_m": "landau",
    "quartic_margin_ratio": "landau", "tricritical_scan": "landau",
    "BracketError": "transition", "DeltaSolution": "transition",
    "PowerLawFit": "transition", "stationarity_residual": "transition",
    "solve_delta": "transition", "delta_sweep": "transition",
    "fit_beta": "transition",
    "HardCoreConfig": "hardcore", "JunctionPoint": "hardcore",
    "InfeasibleError": "hardcore", "NoJunctionError": "hardcore",
    "junction": "hardcore", "constrained_delta": "hardcore",
    "hardcore_sweep": "hardcore", "tau_theory_prefactor": "hardcore",
    "fit_tau": "hardcore",
    "direct_bipartite_sum": "oracle", "brute_force_energy": "oracle",
    "richardson_derivative": "oracle",
    "QuadratureError": "quadrature", "integrate_log_axis": "quadrature",
    "laplace_weight": "quadrature",
    "bipartite_energy_quadrature": "quadrature",
    "landau_coefficients_quadrature": "quadrature",
    "SeriesError": "specfun",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value         # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
