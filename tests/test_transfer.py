"""Checks of the lens-integral construction turning a spherical certificate
g into a compactly supported positive-definite function f on R^n.

Exact identities available for cross-checking: f vanishes past 2R,
f(0) = vol(B_R) g(1), the total integral equals vol(B_R)^2 mean(g), and
vol(B_1) f(0) / int f collapses to sin^n(theta/2) g(1)/mean(g).
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from packbounds import spherical_lp
from packbounds.orthopoly import GegenbauerContext
from packbounds.specfun import log_gamma
from packbounds.spherical_lp import LPProblem, lp_solve_spherical, transfer_g_to_f


def unit_ball_volume(n: int, radius: float = 1.0) -> float:
    return math.pi ** (n / 2.0) / math.exp(log_gamma(n / 2.0 + 1.0)) * radius**n


@pytest.fixture(scope="module")
def probes():
    out = {}
    for n in (2, 3, 4):
        for theta in (math.pi / 3, math.pi / 2):
            p = LPProblem(n=n, theta=theta, degree=8)
            cert = lp_solve_spherical(p)
            assert cert.certified
            out[(n, theta)] = (cert, transfer_g_to_f(cert, p))
    return out


def test_f_vanishes_past_support(probes):
    for (n, theta), (cert, probe) in probes.items():
        R = probe.R
        assert math.isclose(R, 1.0 / math.sin(theta / 2.0), rel_tol=1e-14)
        for r, v in zip(probe.sample_radii, probe.f_values):
            if r >= 2.0 * R:
                assert v == 0.0


def test_f_at_zero_identity(probes):
    for (n, theta), (cert, probe) in probes.items():
        expected = unit_ball_volume(n, probe.R) * cert.objective
        assert math.isclose(probe.f_at_zero, expected, rel_tol=1e-6)


def test_integral_identity(probes):
    for (n, theta), (cert, probe) in probes.items():
        expected = unit_ball_volume(n, probe.R) ** 2 * cert.coefficients[0]
        assert math.isclose(probe.integral_f, expected, rel_tol=1e-5)
        # the fixed 64-point lens rule limits n = 2 to about 2e-8
        if n >= 3:
            assert math.isclose(probe.integral_f, expected, rel_tol=1e-9)


def test_sign_condition_past_two(probes):
    for (n, theta), (cert, probe) in probes.items():
        for r, v in zip(probe.sample_radii, probe.f_values):
            if r >= 2.0:
                assert v <= 1e-8 * probe.f_at_zero


def test_closing_identity(probes):
    for (n, theta), (cert, probe) in probes.items():
        lhs = unit_ball_volume(n) * probe.f_at_zero / probe.integral_f
        rhs = math.sin(theta / 2.0) ** n * cert.objective / cert.coefficients[0]
        assert math.isclose(lhs, rhs, rel_tol=1e-4)


def test_dimension_guard():
    p = LPProblem(n=9, theta=math.pi / 2, degree=4)
    cert = lp_solve_spherical(p)
    with pytest.raises(ValueError):
        transfer_g_to_f(cert, p)


def test_f_at_zero_is_the_first_sample(monkeypatch):
    p = LPProblem(n=3, theta=math.pi / 2, degree=4)
    cert = lp_solve_spherical(p)
    calls = []
    lens_f = spherical_lp._lens_f

    def counted(coef, n, R, radii):
        calls.append(np.asarray(radii, dtype=float).tolist())
        return lens_f(coef, n, R, radii)

    monkeypatch.setattr(spherical_lp, "_lens_f", counted)
    probe = transfer_g_to_f(cert, p)
    assert probe.sample_radii[0] == 0.0 and probe.f_values[0] == probe.f_at_zero
    # the sample radii are the first call, and 0 among all radii only there
    assert calls[0] == list(probe.sample_radii)
    assert sum(radii.count(0.0) for radii in calls) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_lens_value_independent_of_the_radii_sharing_the_call(n):
    # segments of different radii share the integrand's blocks, but each
    # radius is reduced alone, so its value is the same bit for bit
    p = LPProblem(n=n, theta=math.pi / 3, degree=8)
    cert = lp_solve_spherical(p)
    ctx = GegenbauerContext(n)
    weights = spherical_lp._normalized_weights(ctx, np.asarray(cert.coefficients))
    coef = spherical_lp._chebyshev_coefficients(ctx, weights)
    R = 1.0 / math.sin(p.theta / 2.0)
    radii = [0.0, R, 2.0 * R - 1e-6, 0.5, 2.0 * R, 1.5 * R, 3.0 * R, R, 0.0, 0.5]
    together = spherical_lp._lens_f(coef, n, R, radii)
    alone = np.concatenate([spherical_lp._lens_f(coef, n, R, [r]) for r in radii])
    assert together.tobytes() == alone.tobytes()
    assert together[0] > 0.0 and together[4] == together[6] == 0.0


def test_transfer_memory_is_blocked():
    p = LPProblem(n=8, theta=math.pi / 3, degree=10)
    cert = lp_solve_spherical(p)
    tracemalloc.start()
    try:
        transfer_g_to_f(cert, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lens integrand runs in blocks of 2^14 points and g's Clenshaw sum
    # on four rows of a block: about 1.6 MB at its peak
    assert peak < 2.5e6


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("degree", [0, 1, 2, 10, 40, 200])
def test_chebyshev_sum_matches_eval_g(n, degree):
    # the lens sums g from its interpolated Chebyshev coefficients; they lose
    # accuracy like degree^2 (the interpolation's own rounding, about
    # 0.1 (d+1)^2 ulps of sum |w_k| measured at d = 40 and 200)
    ctx = GegenbauerContext(n)
    t = np.linspace(-1.0, 1.0, 10_000)
    rng = np.random.default_rng(1000 * n + degree)
    for w in (rng.standard_normal(degree + 1), rng.random(degree + 1)):
        coef = spherical_lp._chebyshev_coefficients(ctx, w)
        got = spherical_lp._chebyshev_sum(coef, t, np.empty((4, t.size)))
        tol = 2.0 * (degree + 1) ** 2 * np.finfo(float).eps * np.abs(w).sum()
        assert np.abs(got - spherical_lp._eval_g(ctx, w, t)).max() <= tol
        if degree <= 1:  # no recurrence step: the sum is coef[0] + x coef[1], or w_0
            expected = coef[0] + t * coef[1] if degree else np.full_like(t, w[0])
            assert got.tobytes() == expected.tobytes()


def bench_transfer_identity_errors() -> list[list[float]]:
    """Relative errors of f(0) = vol(B_R) g(1) and int f = vol(B_R)^2 c_0 for
    the benchmark's transfers, degree 10 at n = 4 and 8, theta = pi/3."""
    errors = []
    for n in (4, 8):
        p = LPProblem(n=n, theta=math.pi / 3, degree=10)
        cert = lp_solve_spherical(p)
        probe = transfer_g_to_f(cert, p)
        vol, c0 = unit_ball_volume(n, probe.R), cert.coefficients[0]
        errors.append([abs(probe.f_at_zero / (vol * cert.objective * c0) - 1.0),
                       abs(probe.integral_f / (vol * vol * c0) - 1.0)])
    return errors


def _assert_bench_identities(errors):
    for f0_error, integral_error in errors:
        assert f0_error < 1e-13 and integral_error < 1e-10


def test_bench_transfers_meet_their_identities():
    _assert_bench_identities(bench_transfer_identity_errors())


def test_bench_transfers_meet_their_identities_without_avx512():
    # NPY_DISABLE_CPU_FEATURES acts only on the child, whose numpy takes its
    # non-AVX-512 kernels; the digests of test_cli.py move there, these errors
    # must not (a host without those kernels checks nothing new)
    here = Path(__file__).resolve().parent
    code = "import json, test_transfer; print(json.dumps(test_transfer.bench_transfer_identity_errors()))"
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    _assert_bench_identities(json.loads(proc.stdout))
