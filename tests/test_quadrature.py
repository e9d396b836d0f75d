"""Tests for the log-axis adaptive integrator."""

import math

import pytest

from ljchain.quadrature import QuadratureError, integrate_log_axis


def test_exponential_integral():
    # int_0^inf exp(-t) dt = 1, written as int g(u) du with t = e^u
    val, err = integrate_log_axis(lambda u: math.exp(u - math.exp(u)), 0.0)
    assert val == pytest.approx(1.0, rel=1e-12)
    assert err < 1e-10


def test_gamma_values():
    # int_0^inf t^(k-1) exp(-t) dt = (k-1)!
    for k in (2, 3, 5):
        val, _ = integrate_log_axis(
            lambda u, k=k: math.exp(k * u - math.exp(u)), math.log(k))
        assert val == pytest.approx(math.factorial(k - 1), rel=1e-11)


def test_gaussian_moment():
    # int_0^inf t exp(-t^2) dt = 1/2
    val, _ = integrate_log_axis(
        lambda u: math.exp(2.0 * u - math.exp(2.0 * u)), 0.0)
    assert val == pytest.approx(0.5, rel=1e-12)


def test_center_offset_insensitive():
    # a shifted center changes the panel layout, not the value
    f = lambda u: math.exp(u - math.exp(u))
    v0, _ = integrate_log_axis(f, 0.0)
    v1, _ = integrate_log_axis(f, 3.0)
    v2, _ = integrate_log_axis(f, -4.0)
    assert v1 == pytest.approx(v0, rel=1e-12)
    assert v2 == pytest.approx(v0, rel=1e-12)


def test_zero_integrand():
    val, err = integrate_log_axis(lambda u: 0.0, 0.0)
    assert val == 0.0 and err == 0.0


def test_error_estimate_reported():
    # a kink forces visible refinement work; the estimate must cover
    # the actual miss (integrand |u| e^-|u| sharp at 0 in u space)
    want = 2.0      # int |u| e^-|u| du over R
    val, err = integrate_log_axis(lambda u: abs(u) * math.exp(-abs(u)), 0.3)
    assert val == pytest.approx(want, rel=1e-9)
    assert abs(val - want) <= max(err * 10.0, 1e-10)


def test_non_decaying_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_log_axis(lambda u: 1.0, 0.0)


def test_discontinuity_beyond_depth_raises():
    # a step at an irrational point cannot be resolved to 1e-12 by
    # bisection within the depth cap
    def g(u):
        base = math.exp(-u * u)
        return base * (2.0 if u < 0.1234567891 else 1.0)

    with pytest.raises(QuadratureError):
        integrate_log_axis(g, 0.0, rel_tol=1e-13)


def _step_gaussian(u):
    # e^(-u^2/20) with a step of relative height 1e-6 at an irrational point
    base = math.exp(-u * u / 20.0)
    return base * (1.0 + 1e-6 if u < 0.1234567891 else 1.0)


def test_small_step_meets_its_tolerance():
    # a step the global error sum can absorb: the tolerance is met well
    # above the narrowest panel, and the estimate covers the miss
    want = 7.92665868196475     # mpmath, dps 30
    val, err = integrate_log_axis(_step_gaussian, 0.0, rel_tol=1e-12)
    assert val == pytest.approx(want, rel=1e-12)
    assert abs(val - want) <= err


def test_unreachable_tolerance_raises():
    # a zero tolerance is never met on a nonzero integrand: the split
    # budget ends the search long before every panel reaches the width floor
    with pytest.raises(QuadratureError, match="after 500 splits"):
        integrate_log_axis(lambda u: math.exp(u - math.exp(u)), 0.0, rel_tol=0.0)


# (integrand, center, rel_tol), each nonnegative, so that no panel value
# exceeds the whole integral and the tolerance is rel_tol * value
NONNEGATIVE = [
    (lambda u: math.exp(u - math.exp(u)), 0.0, 1e-12),
    (lambda u: math.exp(2.0 * u - math.exp(u)), math.log(2.0), 1e-12),
    (lambda u: math.exp(5.0 * u - math.exp(u)), math.log(5.0), 1e-12),
    (lambda u: math.exp(2.0 * u - math.exp(2.0 * u)), 0.0, 1e-12),
    (lambda u: math.exp(u - math.exp(u)), -4.0, 1e-12),
    (lambda u: abs(u) * math.exp(-abs(u)), 0.3, 1e-12),
    (_step_gaussian, 0.0, 1e-12),
    (_step_gaussian, 0.0, 1e-8),
]


@pytest.mark.parametrize("g,center,rel_tol", NONNEGATIVE)
def test_estimate_within_tolerance(g, center, rel_tol):
    val, err = integrate_log_axis(g, center, rel_tol)
    assert 0.0 < err <= rel_tol * val


def test_cross_method_grid_evaluation_counts(monkeypatch):
    # deterministic work: the 150 lattice-sum integrals of validate's
    # cross-method grid take 449 integrand evaluations each
    from ljchain import quadrature, validate
    calls = evals = 0

    def counting(g, center, rel_tol):
        nonlocal calls

        def counted(u):
            nonlocal evals
            evals += 1
            return g(u)

        calls += 1
        return integrate_log_axis(counted, center, rel_tol)

    monkeypatch.setattr(quadrature, "integrate_log_axis", counting)
    ok, _ = validate._check_cross_method_grid()
    assert ok
    assert (calls, evals) == (150, 150 * 449)
