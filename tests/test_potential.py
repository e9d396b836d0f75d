"""Tests for potential construction, parsing, the n-m check and the Laplace weight."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ljchain.potential import (
    RieszComponent,
    PotentialSpec,
    mie_potential,
    parse_potential,
    format_potential,
)
from ljchain.energy import find_A_min
from ljchain.hardcore import HardCoreConfig, tau_theory_prefactor
from ljchain.landau import critical_point
from ljchain.quadrature import integrate_log_axis, laplace_weight
from ljchain.transition import fit_beta, solve_delta, stationarity_residual


def test_mie_normalization():
    # f(1) = -1 and f'(1) = 0 for every admissible pair
    for n, m in [(12, 6), (7, 6), (6, 2), (8, 6), (2.5, 1.5)]:
        spec = mie_potential(n, m)

        def f(r):
            return sum(c.coefficient * r ** -c.exponent for c in spec.components)

        assert f(1.0) == pytest.approx(-1.0, abs=1e-14)
        h = 1e-6
        slope = (f(1.0 + h) - f(1.0 - h)) / (2.0 * h)
        assert abs(slope) < 1e-7


def test_mie_component_layout():
    spec = mie_potential(12, 6)
    assert spec.mie == (12.0, 6.0)
    exps = sorted(c.exponent for c in spec.components)
    assert exps == [6.0, 12.0]
    coef = {c.exponent: c.coefficient for c in spec.components}
    assert coef[12.0] == pytest.approx(1.0)      # m/(n-m) = 6/6
    assert coef[6.0] == pytest.approx(-2.0)      # -n/(n-m) = -12/6


def test_mie_rejects_bad_exponents():
    with pytest.raises(ValueError):
        mie_potential(6, 6)
    with pytest.raises(ValueError):
        mie_potential(6, 12)
    with pytest.raises(ValueError):
        mie_potential(12, 1.0)


def test_riesz_component_validation():
    with pytest.raises(ValueError):
        RieszComponent(1.0, 1.0)
    with pytest.raises(ValueError):
        PotentialSpec(())


# -------------------------------------------------------------- laplace weight

@pytest.mark.parametrize("s", [2.0, 3.5, 6.0, 12.0])
@pytest.mark.parametrize("r", [0.7, 1.0, 1.9])
def test_laplace_weight_reproduces_inverse_power(s, r):
    # int_0^inf exp(-r^2 t) w_s(t) dt = r^(-s)
    def g(u):
        t = math.exp(u)
        return math.exp(-r * r * t) * laplace_weight(s, t) * t

    val, err = integrate_log_axis(g, center=math.log(0.5 * s / (r * r)))
    assert val == pytest.approx(r ** -s, rel=1e-9)


def test_laplace_weight_domain():
    with pytest.raises(ValueError):
        laplace_weight(0.0, 1.0)
    with pytest.raises(ValueError):
        laplace_weight(2.0, 0.0)


# ------------------------------------------------------------------ text form

ROUND_TRIP = [
    "mie:n=12,m=6",
    "mie:n=7,m=6",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_parse_format_round_trip(text):
    spec = parse_potential(text)
    assert format_potential(spec) == text
    again = parse_potential(format_potential(spec))
    assert again == spec


def test_parse_mie_matches_builder():
    assert parse_potential("mie:n=12,m=6") == mie_potential(12, 6)
    assert parse_potential(" mie:n=12,m=6 ") == mie_potential(12, 6)
    assert parse_potential("MIE:n=12,m=6") == mie_potential(12, 6)


@pytest.mark.parametrize("bad", [
    "mie:n=12",
    "mie:m=6",
    "mie:n=12,m=6,junk=3",
    "mie:n=twelve,m=6",
    "mie:",
    "riesz:c=1",
    "riesz:s=6",
    "riesz:c=1,s=6,w=2",
    "lj:n=12,m=6",
    "mie",
    "",
    "mie:n=12,m=6,sigma=",
    "mie:n=12,m=6,n=13",
    "riesz:c=1,s=6,s=7;c=-2,s=3",
    "riesz:c=1,s=6,sigma=1;c=-2,s=3,sigma=2",
    # a hard core is not part of a potential (HardCoreConfig holds it)
    "mie:n=12,m=6,sigma=1.1",
    "riesz:c=1,s=12;c=-2,s=6,sigma=1.05",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_potential(bad)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.5, 40.0), st.floats(1.01, 20.0))
def test_format_parse_is_text_stable(n, m):
    # the text keeps every digit %g would drop, so both the value and the
    # text round trip are exact, however close the pair
    if n <= m:
        return
    spec = mie_potential(n, m)
    text = format_potential(spec)
    assert parse_potential(text) == spec
    assert format_potential(parse_potential(text)) == text


@pytest.mark.parametrize("spec,text", [
    (mie_potential(12.0000001, 6), "mie:n=12.0000001,m=6"),
    (mie_potential(18.36738958292275, 18.35738958292275),
     "mie:n=18.36738958292275,m=18.35738958292275"),
])
def test_format_keeps_digits_g_would_drop(spec, text):
    assert format_potential(spec) == text
    assert parse_potential(text) == spec


# ------------------------------------------------------------ the n-m gate

N_M_ENTRY_POINTS = {
    "solve_delta": lambda spec: solve_delta(spec, 1.2),
    "stationarity_residual": lambda spec: stationarity_residual(spec, 1.2, 0.4),
    "fit_beta": fit_beta,
    "critical_point": critical_point,
    "HardCoreConfig": lambda spec: HardCoreConfig(spec, 1.1),
    "tau_theory_prefactor": tau_theory_prefactor,
    "find_A_min": find_A_min,
    "format_potential": format_potential,
}


@pytest.mark.parametrize("name", N_M_ENTRY_POINTS)
def test_every_n_m_entry_point_gives_one_message(name):
    # the components of the n-m potential without its tag: each entry
    # point that needs the pair raises the one check's message
    untagged = PotentialSpec(mie_potential(12, 6).components)
    with pytest.raises(ValueError, match=r"^requires an n-m potential$"):
        N_M_ENTRY_POINTS[name](untagged)
