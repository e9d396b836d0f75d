"""The value types: immutable records with named fields.

Every result and configuration type is built by keyword or position,
checks its arguments, compares and hashes by value, refuses assignment
and prints as Name(field=value, ...).  One parametrized test pins all
of that for each of the twelve types.
"""

import math

import pytest

from ljchain.energy import BipartiteChain, EnergyCurveRow, EnergyResult
from ljchain.hardcore import HardCoreConfig, JunctionPoint
from ljchain.landau import LandauCoefficients, TransitionPoint, TricriticalScanReport
from ljchain.potential import PotentialSpec, RieszComponent, mie_potential
from ljchain.transition import DeltaSolution, PowerLawFit

RIESZ = PotentialSpec((RieszComponent(1.0, 12.0), RieszComponent(-2.0, 6.0)))

# (type, every field in order with a non-default value, the defaults,
#  argument changes that must raise ValueError, one field change)
CASES = [
    (RieszComponent, {"coefficient": -2.0, "exponent": 6.0}, {},
     [{"exponent": 1.0}, {"exponent": 0.5}, {"exponent": math.inf},
      {"coefficient": math.nan}, {"coefficient": math.inf}], ("coefficient", 3.0)),
    (PotentialSpec, {"components": RIESZ.components, "mie": (12.0, 6.0)},
     {"mie": None}, [{"components": ()}, {"mie": (7.0, 6.0)},
                     {"components": ((1.0, 6.0),), "mie": None}], ("mie", None)),
    (BipartiteChain, {"A": 1.2, "Delta": 2.0}, {},
     [{"A": 0.0}, {"A": -1.0}, {"Delta": 0.0}, {"A": math.inf}, {"Delta": math.inf}],
     ("Delta", 3.0)),
    (EnergyResult, {"value": -1.5, "method": "quadrature", "est_error": 1e-12}, {},
     [{"method": "guess"}, {"est_error": -1e-16}], ("method", "closed_form")),
    (LandauCoefficients, {"A": 1.1, "E_eq": -1.0, "E2": 0.1, "E4": 0.2, "E6": 0.3,
                          "method": "quadrature", "est_error": 1e-13},
     {"est_error": 0.0}, [{"method": "brute_force"}], ("E4", 0.25)),
    (TransitionPoint, {"A_c": 1.1, "bracket": (1.0, 1.2), "sign_change_verified": True,
                       "E4_at_Ac": 0.5}, {}, [], ("sign_change_verified", False)),
    (TricriticalScanReport, {"x_lo": 1.0, "x_hi": 60.0, "n_x": 10, "monotone": True,
                             "max_forward_diff": -1e-3, "pairs_checked": 5,
                             "all_E4_positive": True, "min_E4_at_Ac": 0.1},
     {}, [], ("n_x", 11)),
    (DeltaSolution, {"A": 2.0, "Delta": 1.5, "residual": 1e-16, "branch": "bipartite",
                     "evals": 9, "est_error": 1e-15},
     {"evals": 0, "est_error": 0.0}, [{"branch": "dimer"}, {"Delta": 0.99}],
     ("residual", 0.0)),
    (PowerLawFit, {"exponent": 0.5, "prefactor": 2.0, "r_squared": 1.0,
                   "window": (1e-8, 1e-4), "n_points": 2, "theory_exponent": 0.5,
                   "theory_prefactor": 2.1, "prefactor_at_theory_exponent": 2.05,
                   "xs": (1e-8, 1e-4), "ys": (1e-4, 1e-2), "junctions": ("j1", "j2")},
     {"theory_exponent": None, "theory_prefactor": None,
      "prefactor_at_theory_exponent": None, "xs": (), "ys": (), "junctions": ()},
     [], ("exponent", 0.49)),
    (EnergyCurveRow, {"A": 1.5, "E_ground": -0.9, "E_equidistant_continuation": -0.8,
                      "phase": "bipartite", "Delta": 1.3}, {}, [], ("phase", "equidistant")),
    (HardCoreConfig, {"params": mie_potential(12.0, 6.0), "sigma": 1.1}, {},
     [{"params": RIESZ}, {"sigma": 0.0}, {"sigma": math.inf}], ("sigma", 1.05)),
    (JunctionPoint, {"A_star": 3.0, "Delta_star": 4.0, "delta_star": 0.2,
                     "residual": 1e-17, "evals": 12, "est_error": 1e-15},
     {"evals": 0, "est_error": 0.0}, [], ("A_star", 3.5)),
]


@pytest.mark.parametrize("cls, fields, defaults, invalid, change", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, fields, defaults, invalid, change):
    obj = cls(**fields)
    assert [getattr(obj, name) for name in fields] == list(fields.values())
    assert cls(*fields.values()) == obj
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"

    required = {k: v for k, v in fields.items() if k not in defaults}
    bare = cls(**required)
    assert {name: getattr(bare, name) for name in defaults} == defaults

    for bad in invalid:
        with pytest.raises(ValueError):
            cls(**{**fields, **bad})

    twin = cls(**fields)
    assert twin == obj and hash(twin) == hash(obj)
    name, value = change
    assert cls(**{**fields, name: value}) != obj

    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, name) == fields[name]
