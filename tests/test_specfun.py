import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv

from packbounds import specfun
from packbounds.specfun import (
    IntegrandError,
    LogScaled,
    NonConvergenceError,
    bessel_first_zero,
    golden_section_min,
    incomplete_beta,
    integrate,
    integrate_real_line,
    log_binomial,
    log_gamma,
    scaled_erfc_complex,
)

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# LogScaled
# ---------------------------------------------------------------------------


def test_logscaled_round_trip_12_digits():
    rng = np.random.default_rng(7)
    exponents = rng.uniform(-300, 300, size=200)
    mantissas = rng.uniform(1.0, 10.0, size=200)
    for m, e in zip(mantissas, exponents):
        v = LogScaled.from_log(math.log(m) + e * math.log(10.0))
        mm, ee = v.mantissa_exponent()
        direct = mp.mpf(m) * mp.power(10, mp.mpf(float(e)))
        recon = mp.mpf(mm) * mp.power(10, ee)
        assert abs(recon - direct) / direct < 1e-12


def test_logscaled_arithmetic_and_order():
    a = LogScaled.from_log(math.log(3.0))
    b = LogScaled.from_log(math.log(4.0))
    assert math.isclose((a * b).to_float(), 12.0, rel_tol=1e-14)
    # values order as their logs do, including far outside the float range
    logs = [-800.0, -1.5, 0.0, math.log(3.0), 900.0]
    for x in logs:
        for y in logs:
            u, v = LogScaled.from_log(x), LogScaled.from_log(y)
            assert (u < v, u <= v, u > v, u >= v, u == v, u != v) == (
                x < y, x <= y, x > y, x >= y, x == y, x != y
            )


# ---------------------------------------------------------------------------
# log-gamma / log-binomial
# ---------------------------------------------------------------------------


def test_log_gamma_small_values():
    assert log_gamma(1.0) == 0.0
    assert math.isclose(log_gamma(0.5), math.log(math.sqrt(math.pi)), rel_tol=1e-14)


def test_log_gamma_vs_high_precision():
    for x in (0.25, 3.5, 42.0, 301.0, 999.5):
        ref = float(mp.log(mp.gamma(x)))
        assert math.isclose(log_gamma(x), ref, rel_tol=1e-13)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)


def test_log_binomial_exact_small():
    assert math.isclose(log_binomial(4, 2), math.log(6.0), rel_tol=1e-14)
    for a in range(0, 61, 6):
        for b in range(0, a + 1, 5):
            assert math.isclose(
                log_binomial(a, b), math.log(math.comb(a, b)), rel_tol=1e-13, abs_tol=1e-13
            )
    assert log_binomial(17, 0) == 0.0


def test_log_binomial_large_vs_exact_integer():
    ref = float(mp.log(mp.mpf(math.comb(659, 60))))
    assert math.isclose(log_binomial(659, 60), ref, rel_tol=1e-12)


def test_log_binomial_domain():
    with pytest.raises(ValueError):
        log_binomial(3, 4)
    with pytest.raises(ValueError):
        log_binomial(-1, 0)


# ---------------------------------------------------------------------------
# scaled complementary error function
# ---------------------------------------------------------------------------


def _erfcx_ref(z: complex) -> complex:
    zz = mp.mpc(z)
    return complex(mp.exp(zz * zz) * mp.erfc(zz))


def test_scaled_erfc_at_zero():
    assert scaled_erfc_complex(0.0) == pytest.approx(1.0, rel=1e-14)


def test_scaled_erfc_real_one():
    ref = _erfcx_ref(1.0)
    got = scaled_erfc_complex(1.0)
    assert abs(got - ref) / abs(ref) < 1e-12
    assert math.isclose(got.real, 0.4275836, rel_tol=1e-6)


@pytest.mark.parametrize(
    "z", [2 + 1j, 0.5 - 3j, 10 + 10j, -4 + 0.25j, 25 - 14j, 1e-3 + 1e-3j]
)
def test_scaled_erfc_complex_grid(z):
    ref = _erfcx_ref(z)
    got = complex(scaled_erfc_complex(z))
    assert abs(got - ref) / abs(ref) < 1e-12


# ---------------------------------------------------------------------------
# Bessel J and its first zero
# ---------------------------------------------------------------------------


def _bessel_series(nu: float, x: float, terms: int = 120) -> float:
    # plain power series, independent of the library evaluator
    total = mp.mpf(0)
    xh = mp.mpf(x) / 2
    for m in range(terms):
        total += (-1) ** m * xh ** (2 * m + nu) / (mp.factorial(m) * mp.gamma(m + nu + 1))
    return float(total)


def test_bessel_half_integer_closed_form():
    assert abs(jv(0.5, math.pi)) < 1e-11
    assert math.isclose(jv(0.5, math.pi / 2), 2.0 / math.pi, rel_tol=1e-11)


def test_bessel_against_power_series():
    for nu, x in [(0.0, 1.0), (2.5, 7.0), (6.0, 9.9), (11.0, 3.0)]:
        assert math.isclose(jv(nu, x), _bessel_series(nu, x), rel_tol=1e-10, abs_tol=1e-13)


def test_bessel_j6_near_its_root():
    # bracket the root of the power series by bisection, independent of jv
    lo, hi = 9.5, 10.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _bessel_series(6.0, mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(jv(6.0, root)) < 1e-8
    assert math.isclose(bessel_first_zero(6.0), root, rel_tol=1e-9)


def test_first_zero_half_integer_is_pi():
    assert math.isclose(bessel_first_zero(0.5), math.pi, rel_tol=1e-13)


# First zeros j_(nu,1), computed once with mpmath at 50 digits by
#   float(mp.besseljzero(mp.mpf(nu), 1))  (with mp.mp.dps = 50)
# and stored here because the large orders take mpmath seconds each.
BESSEL_FIRST_ZEROS = {
    0.0: 2.404825557695773,
    1.0: 3.8317059702075125,
    6.0: 9.936109524217684,
    24.0: 29.710508889811234,
    57.0: 64.41016470864179,
    150.0: 160.05457959243037,
    300.0: 312.5773616068493,
    400.0: 413.8135410752814,
}


@pytest.mark.parametrize("nu", list(BESSEL_FIRST_ZEROS))
def test_first_zero_vs_high_precision(nu):
    ref = BESSEL_FIRST_ZEROS[nu]
    assert math.isclose(bessel_first_zero(nu), ref, rel_tol=1e-10)


@pytest.mark.parametrize("nu", [0.5, 1.0, 6.0, 24.0, 60.0, 150.0, 300.0])
def test_bessel_positive_below_first_zero(nu):
    j = bessel_first_zero(nu)
    assert abs(jv(nu, j)) < 1e-8
    rng = np.random.default_rng(int(nu * 10))
    xs = rng.uniform(0.01 * j, 0.99 * j, size=64)
    vals = jv(nu, xs)
    # never negative below the first zero; deep in the turning-point region
    # (large order, small argument) the true positive value underflows to 0
    assert np.all(vals >= 0.0)
    assert np.all(vals[xs > 0.5 * j] > 0.0)


def test_first_zero_domain():
    with pytest.raises(ValueError):
        bessel_first_zero(-1.0)
    with pytest.raises(ValueError):
        bessel_first_zero(401.0)


# ---------------------------------------------------------------------------
# incomplete beta
# ---------------------------------------------------------------------------


def test_incomplete_beta_flat():
    for u in (0.0, 0.3, 0.99, 1.0):
        assert math.isclose(incomplete_beta(u, 1.0, 1.0), u, rel_tol=1e-13, abs_tol=1e-15)


def test_incomplete_beta_arcsine():
    assert math.isclose(incomplete_beta(0.25, 0.5, 0.5), math.pi / 3.0, rel_tol=1e-12)


def test_incomplete_beta_symmetry_midpoint():
    a = 3.5
    complete = math.exp(log_gamma(a) * 2 - log_gamma(2 * a))
    assert math.isclose(incomplete_beta(0.5, a, a), complete / 2.0, rel_tol=1e-12)


def test_incomplete_beta_complete_value():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(0.5, 20.0, size=2)
        complete = math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
        assert math.isclose(incomplete_beta(1.0, a, b), complete, rel_tol=1e-10)


def test_incomplete_beta_monotone_in_u():
    for a, b in [(0.5, 0.5), (2.0, 5.0), (7.5, 1.25)]:
        us = np.linspace(0.0, 1.0, 101)
        vals = [incomplete_beta(float(u), a, b) for u in us]
        assert all(x < y for x, y in zip(vals, vals[1:]))


def test_incomplete_beta_domain():
    with pytest.raises(ValueError):
        incomplete_beta(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_beta(0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_integrate_polynomial():
    res = integrate(lambda t: t * t, 0.0, 1.0)
    assert math.isclose(res.value, 1.0 / 3.0, rel_tol=1e-13)
    assert res.converged


def test_integrate_gaussian_real_line():
    res = integrate_real_line(lambda u: np.exp(-(u**2)))
    assert math.isclose(res.value, math.sqrt(math.pi), rel_tol=1e-11)


def test_integrate_real_line_cuts_each_tail_on_its_own():
    # the right tail decays ten times slower, so its cut lands further out
    res = integrate_real_line(lambda u: np.where(u < 0, np.exp(-(u**2)), np.exp(-(u**2) / 100)))
    assert math.isclose(res.value, 5.5 * math.sqrt(math.pi), rel_tol=1e-11)


def test_integrate_wallis():
    res = integrate(lambda x: np.sin(x) ** 10, 0.0, math.pi)
    assert math.isclose(res.value, 63.0 * math.pi / 256.0, rel_tol=1e-12)


def test_integrate_deterministic():
    def f(t):
        return np.exp(-t) * np.cos(5 * t)

    r1 = integrate(f, 0.0, 10.0)
    r2 = integrate(f, 0.0, 10.0)
    assert r1.value == r2.value and r1.error == r2.error and r1.nevals == r2.nevals


def test_integrate_nan_flagged():
    def f(t):
        return np.where(t > 0.5, np.nan, 1.0)

    with pytest.raises(IntegrandError):
        integrate(f, 0.0, 1.0)


def test_integrate_nonconvergence_flagged(monkeypatch):
    # an interior kink needs more panel splits than the cap allows
    monkeypatch.setattr(specfun, "GL_MAX_SPLITS", 3)

    def kink(t):
        return np.abs(t - 1.0 / math.pi)

    with pytest.raises(NonConvergenceError) as exc:
        integrate(kink, 0.0, 1.0)
    assert exc.value.partial.converged is False


def test_golden_section_min_brackets_the_minimum():
    f = lambda x: (x - 0.3) ** 2  # noqa: E731
    assert abs(golden_section_min(f, 0.0, 1.0, 1e-10) - 0.3) < 1e-10
    # maximizing f through its negation; that maximum sits at the end x = 1
    assert abs(golden_section_min(lambda x: -f(x), 0.0, 1.0, 1e-10) - 1.0) < 1e-10
