import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from packbounds import hyperbolic as hyp
from packbounds import orthopoly
from packbounds.euclid_bounds import kl_spherical_code_bound
from packbounds.orthopoly import GegenbauerContext
from packbounds.specfun import _sphere_area

# overlap_finite of the first release (the benchmark's reference values),
# each within about 6e-10 of the true overlap
SEED_OVERLAPS = {
    (2, 1.0, 2.0): 0.5997449840416943,
    (2, 0.5, 3.0): 0.8259886142158414,
    (2, 1.0, 5.0): 0.6900331363835829,
    (2, 2.0, 8.0): 0.4484641579054199,
    (3, 1.0, 2.0): 0.48124675656964483,
    (3, 0.5, 3.0): 0.7488730796759185,
    (3, 1.0, 5.0): 0.5375117418320601,
    (3, 2.0, 8.0): 0.23840338021783872,
    (4, 1.0, 2.0): 0.3905627351239743,
    (4, 0.5, 3.0): 0.687314736082595,
    (4, 1.0, 5.0): 0.4331446372201625,
    (4, 2.0, 8.0): 0.1346271485473766,
    (10, 1.0, 2.0): 0.13144850477750672,
    (10, 0.5, 3.0): 0.46500140385683136,
    (10, 1.0, 5.0): 0.15236830848459104,
    (10, 2.0, 8.0): 0.00645833740297554,
    (50, 1.0, 2.0): 0.0003638556477499398,
    (50, 0.5, 3.0): 0.08160333313177903,
    (50, 1.0, 5.0): 0.0006397435618665155,
    (50, 2.0, 8.0): 8.62748328069956e-11,
}

# 30-digit mpmath quadrature of the radial form; the n = 2 and n = 3 cap
# shares are written as acos(c)/pi and (1 - c)/2, without the beta function.
# The n = 100 and 200 rows are 40-digit: there the band weight sinh^(n-1) s
# spans thousands of nats, and only as a power of sinh s / sinh R does it
# keep the digits of sinh s
MPMATH_OVERLAPS = {
    (2, 1.0, 2.0): 0.59974498407011839097,
    (2, 2.0, 8.0): 0.44846415776056563692,
    (4, 2.0, 8.0): 0.13462714847035289915,
    (3, 0.5, 3.0): 0.74887307982854807958,
    (2, 3.0, 2.0): 0.087199546534132886521,  # r > R: no sphere lies wholly inside
    (3, 3.0, 2.0): 0.028629113456762083998,
    (100, 0.5, 50.0): 0.01356870267873236516,
    (200, 1.0, 40.0): 4.997376963696675372e-12,
}


@pytest.mark.parametrize("r", [0.5, 1.0, 5.0, 20.0])
def test_ball_volume_closed_forms(r):
    v2 = hyp.hyp_ball_volume(2, r).log_value
    v3 = hyp.hyp_ball_volume(3, r).log_value
    assert v2 == pytest.approx(math.log(2.0 * math.pi * (math.cosh(r) - 1.0)), abs=1e-12)
    assert v3 == pytest.approx(math.log(math.pi * (math.sinh(2.0 * r) - 2.0 * r)), abs=1e-12)


# Two radius-R balls at center distance R in R^n share I_(3/4)((n+1)/2, 1/2)
# of their volume (40-digit mpmath); a ball this small in H^n is Euclidean to
# double precision
EUCLIDEAN_LENS_AT_R = {2: 0.39100221895577064, 5: 0.20703125, 200: 3.078150394722125e-14}


@pytest.mark.parametrize("n", sorted(EUCLIDEAN_LENS_AT_R))
def test_tiny_balls_are_euclidean(n):
    lens = EUCLIDEAN_LENS_AT_R[n]
    assert hyp.overlap_finite(n, 1e-300, 1e-300) == pytest.approx(lens, rel=1e-12, abs=0)
    # the band quadrature just above the overlap's Euclidean cut, and the
    # volume's series there, agree with the closed forms
    r = 1.0000001e-9
    assert hyp.overlap_finite(n, r, r) == pytest.approx(lens, rel=1e-12, abs=0)
    euclid = math.log(_sphere_area(n)) + n * math.log(r) - math.log(n)
    assert hyp.hyp_ball_volume(n, r).log_value == pytest.approx(euclid, abs=1e-12)
    with pytest.raises(ValueError, match="1e-300 <= r <= 50, got r = 1e-310"):
        hyp.hyp_ball_volume(n, 1e-310)
    with pytest.raises(ValueError, match="1e-300 <= R <= 50, got R = 1e-310"):
        hyp.overlap_finite(n, 1e-310, 1e-310)


@pytest.mark.parametrize("key", sorted(SEED_OVERLAPS))
def test_overlap_matches_seed_values(key):
    assert hyp.overlap_finite(*key) == pytest.approx(SEED_OVERLAPS[key], rel=1e-8, abs=0)


@pytest.mark.parametrize("key", sorted(MPMATH_OVERLAPS))
def test_overlap_matches_high_precision(key):
    assert hyp.overlap_finite(*key) == pytest.approx(MPMATH_OVERLAPS[key], rel=1.5e-13, abs=0)


@pytest.mark.parametrize(
    "n, r, R",
    [(2, 1e-6, 1.0), (5, 1e-9, 45.0), (3, 2.0, 2.0), (2, 3.999, 2.0), (200, 1.0, 40.0),
     (200, 79.0, 40.0), (50, 7.9, 4.0), (24, 0.01, 0.02)],
)
def test_overlap_is_a_fraction(n, r, R):
    assert 0.0 <= hyp.overlap_finite(n, r, R) <= 1.0


def test_overlap_edges():
    assert hyp.overlap_finite(4, 0.0, 2.0) == 1.0
    assert hyp.overlap_finite(4, 4.0, 2.0) == 0.0
    assert hyp.overlap_finite(4, 5.0, 2.0) == 0.0
    # the overlap falls as the centers move apart
    values = [hyp.overlap_finite(3, r, 2.0) for r in (0.5, 1.0, 2.0, 3.0, 3.9)]
    assert values == sorted(values, reverse=True)
    nan, inf = math.nan, math.inf
    for bad in [(1, 1.0, 2.0), (3, 1.0, 0.0), (3, -1.0, 2.0), (3, nan, 2.0), (3, 1.0, nan),
                (3, 1.0, inf), (3, inf, 2.0)]:
        with pytest.raises(ValueError):
            hyp.overlap_finite(*bad)
        with pytest.raises(ValueError):
            hyp.overlap_monte_carlo(*bad, 10**4)
    for bad in [(3, -1.0), (3, nan), (3, inf), (1, 1.0)]:
        with pytest.raises(ValueError):
            hyp.overlap_limit(*bad)
    # the overlap checks its own domain, naming R
    with pytest.raises(ValueError, match="overlap_finite requires 1e-300 <= R <= 50"):
        hyp.overlap_finite(3, 1.0, 100.0)


@pytest.mark.parametrize("n", [2, 3, 200])
def test_overlap_at_the_least_distance_is_one(n):
    # r = 5e-324 moves the centers by the least double: at R >= 1 the sinh
    # factors were scaled down past it to 0, and the band divided 0/0
    for R in (1e-300, 1e-9, 0.3, 0.7, 1.0, math.pi, 50.0):
        assert hyp.overlap_finite(n, 5e-324, R) == 1.0


def test_radius_from_angle_lies_between_r_and_2r():
    # R in [r, 2r] for theta >= pi/3, from subnormal r to the branch where
    # sinh r / sin(theta/2) overflows
    rs = [5e-324, 1e-300, 1e-9, 0.01, 0.5, 1.0, 3.0, 20.0, 50.0, 300.0, 710.0, 1e5, 1e200, 1e308]
    thetas = [math.pi / 3 - 1e-12, math.pi / 3, 1.2, 1.5, math.pi / 2, 2.0, 2.5, math.pi]
    for r in rs:
        for theta in thetas:
            R = hyp.radius_from_angle(r, theta)
            assert r * (1 - 1e-12) <= R <= 2 * r * (1 + 1e-12), (r, theta)


def test_overlap_limit_past_beta_underflow():
    # B(1/2; a, a) underflows to 0 from n = 1 080 on; the ratio of the
    # regularized incomplete betas does not, and is 1 at r = 0 exactly.
    # The n = 100 000 value is a 30-digit mpmath quadrature of the ratio.
    assert hyp.overlap_limit(5_000, 0.0) == hyp.overlap_limit(2, 0.0) == 1.0
    assert hyp.overlap_limit(100_000, 1e-3) == pytest.approx(0.8743679981824184, rel=1e-13)


def test_overlap_tends_to_limit():
    limit = hyp.overlap_limit(20, 1.0)
    gaps = [abs(hyp.overlap_finite(20, 1.0, R) - limit) for R in (3.0, 6.0, 12.0, 30.0)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-12 * limit


@pytest.mark.parametrize("n, r, R", [(2, 1.0, 2.0), (3, 1.0, 2.0), (4, 1.0, 2.0), (3, 3.0, 2.0)])
def test_overlap_agrees_with_monte_carlo(n, r, R):
    mean, stderr = hyp.overlap_monte_carlo(n, r, R, 200_000, seed=11)
    assert abs(mean - hyp.overlap_finite(n, r, R)) <= 4.0 * stderr


# (mean, stderr) at the test seed and at the benchmark's first seed; each
# equals _polished_overlap's, and test_monte_carlo_pins_lie_within_4_sigma
# checks them against overlap_finite
MONTE_CARLO_PINS = {
    (2, 11): (0.59769, 0.0010964868077181775),
    (3, 11): (0.478595, 0.0011170090106507645),
    (4, 11): (0.3885, 0.0010898801539618932),
    (2, 1): (0.599955, 0.001095465649792361),
    (3, 1): (0.481035, 0.001117229449967642),
    (4, 1): (0.390355, 0.0010908207322355952),
}


@pytest.mark.parametrize("n, seed", sorted(MONTE_CARLO_PINS))
def test_monte_carlo_bytes_pinned(n, seed):
    assert hyp.overlap_monte_carlo(n, 1.0, 2.0, 200_000, seed=seed) == MONTE_CARLO_PINS[n, seed]


MANY_BLOCK_PINS = [(1, (0.46592, 0.002230867784517944)), (11, (0.46182, 0.002229539358701703))]


@pytest.mark.parametrize("seed, pinned", MANY_BLOCK_PINS)
def test_monte_carlo_bytes_pinned_over_many_chunks(seed, pinned):
    # at n = 200, 50 000 samples take four _MC_BLOCK blocks, the last of
    # 848 samples; every block reads the same quantile table
    assert hyp.overlap_monte_carlo(200, 0.1, 2.0, 50_000, seed=seed) == pinned


# geometries that the seeded pins above never sample: r > R, r = R, and
# tiny balls with r > R, where c(s) is least at the half-angle s0 inside
# the ball; each equals _polished_overlap's
MONTE_CARLO_GEOMETRY_PINS = {
    (3, 3.0, 2.0, 1): (0.028785, 0.0003738744694078482),
    (3, 3.0, 2.0, 11): (0.029095, 0.00037582230491949254),
    (10, 2.0, 2.0, 1): (0.00324, 0.00012707286098927653),
    (10, 2.0, 2.0, 11): (0.00327, 0.00012765788459785787),
    (10, 1.5e-7, 1e-7, 1): (0.00321, 0.00012648509595995886),
    (10, 1.5e-7, 1e-7, 11): (0.003175, 0.0001257958539658601),
    (3, 1.5e-100, 1e-100, 1): (0.0861, 0.000627243134677455),
    (3, 1.5e-100, 1e-100, 11): (0.08608, 0.0006271771424406345),
}


@pytest.mark.parametrize("n, r, R, seed", sorted(MONTE_CARLO_GEOMETRY_PINS))
def test_monte_carlo_bytes_pinned_off_the_bench(n, r, R, seed):
    pinned = MONTE_CARLO_GEOMETRY_PINS[n, r, R, seed]
    assert hyp.overlap_monte_carlo(n, r, R, 200_000, seed=seed) == pinned


def test_monte_carlo_pins_lie_within_4_sigma():
    # a pin taken from a biased stream would fail this: each pinned mean is
    # within 4 sigma of the binomial count at the exact overlap p
    pins = [((n, 1.0, 2.0), 200_000, MONTE_CARLO_PINS[n, seed]) for n, seed in MONTE_CARLO_PINS]
    pins += [((200, 0.1, 2.0), 50_000, pinned) for _, pinned in MANY_BLOCK_PINS]
    pins += [((n, r, R), 200_000, pinned)
             for (n, r, R, _), pinned in MONTE_CARLO_GEOMETRY_PINS.items()]
    assert len(pins) == 16
    for geometry, samples, (mean, _) in pins:
        exact = hyp.overlap_finite(*geometry)
        assert abs(mean - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / samples), geometry


@pytest.mark.parametrize("n, r, R", [(3, 1.0, 2.0), (2, 3.0, 2.0), (10, 2.0, 2.0)])
def test_monte_carlo_is_unbiased_across_seeds(n, r, R):
    # the mean of 64 binomial z-scores at the exact overlap has sd 1/8, so
    # 0.5 is 4 sigma of it: a bias of a fraction of sigma per run fails
    samples, exact = 20_000, hyp.overlap_finite(n, r, R)
    sigma = math.sqrt(exact * (1.0 - exact) / samples)
    scores = [(hyp.overlap_monte_carlo(n, r, R, samples, seed=seed)[0] - exact) / sigma
              for seed in range(64)]
    assert abs(sum(scores) / len(scores)) <= 0.5


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 200])
def test_direction_cosine_has_the_exact_marginal(n):
    # (1 + w1)/2 of a uniform direction is Beta((n-1)/2, (n-1)/2); the beta
    # CDF is taken here only, so the sampler stays independent of it
    rng = np.random.default_rng(7)
    z, v = rng.random((2, 200_000))
    w1 = hyp._direction_cosine(n, z, v)
    half = (n - 1) / 2.0
    assert stats.kstest(w1, lambda w: special.betainc(half, half, (1.0 + w) / 2.0)).pvalue > 1e-3
    # against w[:, 0] / |w| of Gaussian rows, drawn 5 000 rows at a time
    gauss = []
    for _ in range(40):
        w = rng.standard_normal((5_000, n))
        gauss.append(w[:, 0] / np.sqrt(np.einsum("ij,ij->i", w, w)))
    assert stats.ks_2samp(w1, np.concatenate(gauss)).pvalue > 1e-3


@pytest.mark.parametrize(
    "n, r, R",
    [(n, r, 2.0) for n in (2, 5, 10, 50, 200) for r in (0.0, 0.05, 1.0, 2.0, 3.0, 4.0, 5.0)]
    + [(200, 0.05, 40.0), (10, 1.0, 40.0), (2, 3.0, 50.0)]
    # small balls, where cosh of a radius rounds to 1
    + [(2, 3e-8, 1e-7), (10, 3e-8, 1e-7), (3, 3e-101, 1e-100), (200, 1e-101, 1e-100)],
)
def test_monte_carlo_agrees_in_every_dimension(n, r, R):
    # 4 sigma of the binomial count at the exact overlap p, which stays
    # meaningful where p is so small that the estimate has no hits
    samples = 20_000
    mean, _ = hyp.overlap_monte_carlo(n, r, R, samples, seed=11)
    exact = hyp.overlap_finite(n, r, R)
    assert abs(mean - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / samples)


def test_monte_carlo_domain():
    for bad, name in [((1, 1.0, 2.0), "n = 1"), ((201, 1.0, 2.0), "n = 201"),
                      ((2, 1.0, 1000.0), "R = 1000.0"), ((2, 1.0, 0.0), "R = 0.0"),
                      ((2, 0.0, 1e-310), "R = 1e-310")]:
        with pytest.raises(ValueError, match=name):
            hyp.overlap_monte_carlo(*bad, 10**4)
    with pytest.raises(ValueError, match="seed = -1"):
        hyp.overlap_monte_carlo(3, 1.0, 2.0, 10**4, seed=-1)
    # a float or a string is no sample count or seed, even when integral
    for samples, seed, message in [(20000.0, 0, "samples, got samples = 20000.0"),
                                   ("20000", 0, "samples, got samples = '20000'"),
                                   (10**4, 1.5, "seed, got seed = 1.5"),
                                   (10**4, None, "seed, got seed = None")]:
        with pytest.raises(ValueError, match=re.escape(f"requires an integer {message}")):
            hyp.overlap_monte_carlo(3, 1.0, 2.0, samples, seed=seed)
    assert hyp.overlap_monte_carlo(3, 1.0, 2.0, np.int64(10**4), seed=np.uint8(1)) == \
        hyp.overlap_monte_carlo(3, 1.0, 2.0, 10**4, seed=1)
    # cosh r overflows, but the balls are disjoint whenever r >= 2R
    assert hyp.overlap_monte_carlo(3, 800.0, 2.0, 10**4) == (0.0, 0.0)


def test_monte_carlo_memory_is_bounded():
    # a block's (3, 2^14) uniforms and temporaries take about 1.2 MB at any
    # n; Gaussian directions took 2.4 MB at n = 4 even drawn in row blocks
    for n, r, R, samples, seed in [(200, 0.05, 2.0, 40_000, 3), (4, 1.0, 2.0, 200_000, 1)]:
        tracemalloc.start()
        try:
            hyp.overlap_monte_carlo(n, r, R, samples, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, (n, peak)


MC_PROBE = """
import json, sys
from packbounds import hyperbolic as hyp
print(json.dumps([hyp.overlap_monte_carlo(*call) for call in json.loads(sys.argv[1])]))
"""


def test_monte_carlo_pins_hold_without_avx512():
    # the blocked np.exp and np.log slices must give the pinned estimates on
    # numpy's non-AVX-512 kernels too; NPY_DISABLE_CPU_FEATURES acts only on
    # the child (a host without those kernels checks nothing new)
    calls = [(n, 1.0, 2.0, 200_000, seed) for n, seed in sorted(MONTE_CARLO_PINS)]
    calls += [(200, 0.1, 2.0, 50_000, seed) for seed, _ in MANY_BLOCK_PINS]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", MC_PROBE, json.dumps(calls)],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4", "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    pins = [MONTE_CARLO_PINS[key] for key in sorted(MONTE_CARLO_PINS)]
    assert [tuple(got) for got in json.loads(proc.stdout)] == pins + [p for _, p in MANY_BLOCK_PINS]


# int_0^s sinh^(n-1) in closed form: the sampler's antiderivatives before
# the recurrence.  Below s = 0.5 these forms cancel (n = 4 loses 3e-12 at
# s = 0.1), so small s is checked against the high-precision values below.
CLOSED_FORMS = {
    2: lambda s: math.cosh(s) - 1.0,
    3: lambda s: (math.sinh(2.0 * s) - 2.0 * s) / 4.0,
    4: lambda s: (math.cosh(3.0 * s) - 9.0 * math.cosh(s) + 8.0) / 12.0,
}


@pytest.mark.parametrize("n", sorted(CLOSED_FORMS))
def test_radial_cdf_matches_closed_forms(n):
    # 0.88 takes the series, 0.9 and above the recurrence
    s = np.array([0.5, 0.75, 0.88, 0.9, 1.0, 1.5, 2.0, 5.0, 20.0, 50.0])
    ratio, sh = hyp._sinh_power_integral(n - 1, s)
    for x, got in zip(s, ratio * sh ** (n - 1)):
        assert math.isclose(got, CLOSED_FORMS[n](x), rel_tol=1e-14)


# F(s) / sinh^(n-1) s for F(s) = int_0^s sinh^(n-1), computed once with
# mpmath at 1500 digits from the exact sum over e^((n-1-2k) s), by
#   F = 2^-m sum_k (-1)^k C(m, k) (e^((m-2k) s) - 1)/(m - 2k),  m = n - 1
# (the k = m/2 term is s), and stored with ln F as (ratio, ln F)
SINH_POWER_INTEGRALS = {
    (50, 0.001): (1.9999993717951021e-5, -349.2997791019711),
    (50, 0.1): (0.0019937409000952093, -118.9627726506499),
    (50, 1.99): (0.019629489917772749, 58.690807240621142),
    (50, 39.9): (0.020408163265306122, 1917.2439678544521),
    (200, 0.001): (4.9999983580864509e-6, -1386.8493403246926),
    (200, 0.1): (0.00049836448345990461, -465.48705617870857),
    (200, 1.99): (0.0048390070762022841, 248.98904345075062),
    (200, 39.9): (0.0050251256281407035, 7796.8704062438464),
}


@pytest.mark.parametrize("n, s", sorted(SINH_POWER_INTEGRALS))
def test_radial_cdf_vs_high_precision(n, s):
    ratio_ref, log_ref = SINH_POWER_INTEGRALS[n, s]
    (ratio,), (sh,) = hyp._sinh_power_integral(n - 1, np.array([s]))
    assert math.isclose(ratio, ratio_ref, rel_tol=1e-14)
    assert math.isclose(math.log(ratio) + (n - 1) * math.log(sh), log_ref, rel_tol=1e-14)
    volume = hyp.hyp_ball_volume(n, s).log_value
    assert math.isclose(volume, math.log(_sphere_area(n)) + log_ref, rel_tol=1e-14)


def _polish_calls(monkeypatch):
    """Sizes of the ``_sinh_power_integral`` calls that polish samples: all
    but the first, for ln F(R), and the table's, over its interior nodes."""
    sizes = []
    cdf = hyp._sinh_power_integral
    monkeypatch.setattr(hyp, "_sinh_power_integral",
                        lambda m, x: sizes.append(x.size) or cdf(m, x))
    return lambda: [size for size in sizes[1:] if size != hyp._QUANTILE_NODES - 1]


@pytest.mark.parametrize("n, s", sorted(SINH_POWER_INTEGRALS))
def test_radial_quantile_takes_few_newton_steps(n, s, monkeypatch):
    # at R = 2 and, for the point near R = 40, where F = e^(7797) overflows;
    # ln F(R) is e^(249) at n = 200, R = 2, and e^(7817) at R = 40
    R = 40.0 if s > 2.0 else 2.0
    (ratio_R,), (sinh_R,) = hyp._sinh_power_integral(n - 1, np.array([R]))
    log_u = SINH_POWER_INTEGRALS[n, s][1] - math.log(ratio_R) - (n - 1) * math.log(sinh_R)
    polish = _polish_calls(monkeypatch)
    quantile, _ = hyp._radial_quantile(n - 1, R)
    (got,) = quantile(np.array([log_u]))
    assert math.isclose(got, s, rel_tol=1e-13)
    # from the power-law start, one evaluation of F per Newton step
    assert 1 <= len(polish()) <= 5


@pytest.mark.parametrize("n, R", [(2, 2.0), (4, 2.0), (50, 0.5), (200, 40.0)])
def test_radial_quantile_polishes_each_block_in_few_steps(n, R, monkeypatch):
    # a full block and a one-sample block, told apart by their sizes
    log_u = np.log(np.random.default_rng(5).random(hyp._QUANTILE_BLOCK + 1))
    polish = _polish_calls(monkeypatch)
    quantile, _ = hyp._radial_quantile(n - 1, R)
    quantile(log_u)
    sizes = polish()
    assert 1 <= sizes.count(hyp._QUANTILE_BLOCK) <= 5
    assert 1 <= sizes.count(1) <= 5
    assert len(sizes) == sizes.count(hyp._QUANTILE_BLOCK) + sizes.count(1)


@pytest.mark.parametrize("n", [2, 4, 50, 200])
def test_radial_quantile_table_is_the_map_at_its_nodes(n):
    # one path: the table's interior is the quantile at t_j = j/K, bit for bit
    m, K = n - 1, hyp._QUANTILE_NODES
    quantile, table = hyp._radial_quantile(m, 2.0)
    nodes = quantile((m + 1) * np.log(np.arange(1, K) / K))
    assert table[1:-1].tobytes() == nodes.tobytes()


def _assert_round_trip(m, R, s, log_u):
    """F(s)/F(R) = u, F(s) = int_0^s sinh^m, to 1e-13 in ln u, beyond the
    rounding of ln u itself and of s, which moves ln F by s F'/F per unit
    relative change."""
    ratio, sh = hyp._sinh_power_integral(m, s)
    (ratio_R,), (sinh_R,) = hyp._sinh_power_integral(m, np.array([R]))
    error = np.abs(np.log(ratio / ratio_R) + m * np.log(sh / sinh_R) - log_u)
    assert np.all(error <= 1e-13 + 2.0**-51 * (np.abs(log_u) + s / ratio))


@pytest.mark.parametrize("n", [2, 3, 4, 10, 50, 200])
@pytest.mark.parametrize("R", [1e-100, 1e-7, 0.5, 2.0, 40.0, 50.0])
def test_radial_quantile_round_trip(n, R):
    m, K = n - 1, hyp._QUANTILE_NODES
    # the table's nodes and the midpoints between them, in t = u^(1/(m+1)),
    # and u near 0 and near 1 (the largest draw of a uniform generator)
    t = np.arange(1, 2 * K) / (2 * K)
    log_u = np.concatenate(((m + 1) * np.log(t), [-700.0, -36.0, math.log1p(-2.0**-53)]))
    quantile, table = hyp._radial_quantile(m, R)
    s = quantile(log_u)
    assert np.all((s > 0.0) & (s <= R))
    _assert_round_trip(m, R, s, log_u)
    # u = 0 and u = 1 give 0 and R exactly, and so do the table's end nodes
    assert list(quantile(np.array([-math.inf, 0.0]))) == [0.0, R]
    assert table.size == K + 1 and table[0] == 0.0 and table[-1] == R
    # the table holds the map at t_j, and the radius between two nodes lies
    # between their radii: the brackets that decide most Monte-Carlo samples
    assert np.all(np.abs(s[1:2 * K - 1:2] - table[1:-1]) <= 1e-13 * R)
    assert np.all((table[:-1] < s[:2 * K:2]) & (s[:2 * K:2] < table[1:]))


@pytest.mark.parametrize("size", [1, hyp._QUANTILE_BLOCK, hyp._QUANTILE_BLOCK + 1])
@pytest.mark.parametrize("n, R", [(3, 2.0), (200, 50.0)])
def test_radial_quantile_across_blocks(size, n, R):
    m = n - 1
    log_u = np.log(np.random.default_rng(7).random(size))
    # u = 1 at the end of the first block and u = 0 at the start of the
    # second; a single sample stays a draw
    for i in {hyp._QUANTILE_BLOCK - 1, hyp._QUANTILE_BLOCK} & set(range(1, size)):
        log_u[i] = -math.inf if i % 2 == 0 else 0.0
    quantile, _ = hyp._radial_quantile(m, R)
    s = quantile(log_u)
    assert s.shape == log_u.shape
    assert np.all(s[log_u == -math.inf] == 0.0)
    assert np.all(s[log_u == 0.0] == R)
    inner = np.isfinite(log_u) & (log_u < 0.0)
    _assert_round_trip(m, R, s[inner], log_u[inner])


def test_radial_quantile_memory_is_blocked():
    log_u = np.log(np.random.default_rng(1).random(200_000))
    tracemalloc.start()
    try:
        quantile, _ = hyp._radial_quantile(3, 2.0)
        quantile(log_u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Newton over all 200 000 samples at once held 19 MB of temporaries
    assert peak < 8e6


def _polished_overlap(n, r, R, samples, seed):
    """``overlap_monte_carlo`` without the brackets, as a reference: the same
    (3, block) uniforms, every radius polished by Newton from the table, then
    the test q <= 1."""
    rng = np.random.default_rng(seed)
    sinh_hR = math.sinh(R / 2.0)
    b, cosh_r, cosh_hr = math.sinh(r / 2.0) / sinh_hR, math.cosh(r), math.cosh(r / 2.0)
    quantile, _ = hyp._radial_quantile(n - 1, R)
    hits = 0
    for lo in range(0, samples, hyp._MC_BLOCK):
        u, z, v = rng.random((3, min(hyp._MC_BLOCK, samples - lo)))
        with np.errstate(divide="ignore"):
            s = quantile(np.log(u))
        w1 = hyp._direction_cosine(n, z, v)
        a = np.minimum(np.sinh(s / 2.0) / sinh_hR, 1.0)
        q = a * a * cosh_r + b * b - 2.0 * a * b * np.cosh(s / 2.0) * cosh_hr * w1
        hits += int(np.count_nonzero(q <= 1.0))
    mean = hits / samples
    return mean, math.sqrt(max(mean * (1.0 - mean), 0.0) / samples)


@pytest.mark.parametrize("n", [2, 3, 4, 10, 50, 200])
@pytest.mark.parametrize("R", [1e-100, 1e-7, 2.0, 50.0])
@pytest.mark.parametrize("share", [0.0, 0.5, 1.0, 1.5, 2.0 - 1e-6])
def test_monte_carlo_brackets_keep_every_verdict(n, R, share):
    # concentric, r < R, r = R (0/0 at s = 0), r > R (c least at s0) and
    # nearly disjoint balls, at R from tiny to the domain's end
    r = share * R
    for seed in (1, 11):
        got = hyp.overlap_monte_carlo(n, r, R, 20_000, seed=seed)
        assert got == _polished_overlap(n, r, R, 20_000, seed)
        if r == 0.0:
            assert got == (1.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 200])
@pytest.mark.parametrize("samples", [
    lambda block: block - 1,  # one block, cut short
    lambda block: block + 7,  # a full block, then 7 samples
    lambda block: 3 * block + 3,  # four blocks, the last of 3 samples
], ids=["mid-block", "past-a-block", "four-blocks"])
def test_monte_carlo_blocks_keep_the_stream(n, samples):
    # a short last block draws the same (3, k) uniforms as the reference,
    # and its open samples are polished with those of the full blocks
    samples = samples(hyp._MC_BLOCK)
    for seed in (1, 11):
        assert hyp.overlap_monte_carlo(n, 1.0, 2.0, samples, seed=seed) == \
            _polished_overlap(n, 1.0, 2.0, samples, seed)


@pytest.mark.parametrize("n, R", [(2, 1.0), (3, 1.0), (2, 10.0), (4, 1e-7), (4, 1e-100)])
def test_monte_carlo_brackets_keep_every_verdict_on_a_coarse_table(n, R, monkeypatch):
    # 8 nodes make brackets wide enough that c's minimum at s0 inside one,
    # at r = 1.2 R, lies well below c at both its ends: brackets that left s0
    # out would count some of these hits as misses
    monkeypatch.setattr(hyp, "_QUANTILE_NODES", 8)
    r = 1.2 * R
    for seed in (1, 11):
        assert hyp.overlap_monte_carlo(n, r, R, 20_000, seed=seed) == \
            _polished_overlap(n, r, R, 20_000, seed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_monte_carlo_polishes_few_samples(n, monkeypatch):
    # the bench's geometry: Newton evaluates F on every sample it polishes,
    # and the brackets leave a few in 10^4 of them open
    samples = 200_000
    polish = _polish_calls(monkeypatch)
    hyp.overlap_monte_carlo(n, 1.0, 2.0, samples, seed=1)
    assert sum(polish()) <= 0.01 * samples


@pytest.mark.parametrize("n", [2, 4, 8, 24, 100])
@pytest.mark.parametrize("r", [0.25, 1.0, 2.0])
def test_refined_at_most_coarse(n, r):
    for theta in (math.pi / 3.0, 1.3, math.pi / 2.0, 2.5, math.pi):
        coarse = hyp.hyp_density_bound(n, r, theta)
        refined = hyp.hyp_density_bound(n, r, theta, refined=True)
        assert refined.value <= coarse.value
    assert hyp.hyp_bound_optimized(n, r, True).value <= hyp.hyp_bound_optimized(n, r).value


def _candidate_angles(n):
    ctx = GegenbauerContext(n)
    angles = [math.pi / 3.0]
    k = 1
    while ctx.largest_root(k) <= 0.5:
        angles.append(math.acos(ctx.largest_root(k)))
        k += 1
    return angles


@pytest.mark.parametrize("n", [2, 3, 4, 8, 24])
@pytest.mark.parametrize("r", [0.25, 0.5, 2.0])
@pytest.mark.parametrize("refined", [False, True])
def test_optimized_is_the_minimum(n, r, refined):
    best = hyp.hyp_bound_optimized(n, r, refined)
    assert best.diagnostics["optimized"] is True
    candidates = _candidate_angles(n)
    assert best.theta_star in candidates
    grid = list(np.linspace(math.pi / 3.0, math.pi, 41))
    for theta in candidates + grid:
        assert best.value <= hyp.hyp_density_bound(n, r, theta, refined).value


@pytest.mark.parametrize("n", [400, 1000])
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_optimized_is_the_minimum_past_the_walked_degrees(n, r):
    # k0 = 39 and 88, past the 32 degrees the code bound once walked root by
    # root; coarse only, as the refined bound stops at n = 200
    assert kl_spherical_code_bound(n, math.pi / 3.0)[1] == {400: 39, 1000: 88}[n]
    best = hyp.hyp_bound_optimized(n, r)
    candidates = _candidate_angles(n)
    assert best.theta_star in candidates
    assert best.k_star == kl_spherical_code_bound(n, best.theta_star)[1]
    for theta in candidates:
        assert best.value <= hyp.hyp_density_bound(n, r, theta).value


def test_optimized_computes_the_small_ball_once(monkeypatch):
    # one integral call covers r and the enclosing radius R of every angle
    calls = []
    integral = hyp._sinh_power_integral

    def counted(m, s):
        calls.append((m, s))
        return integral(m, s)

    monkeypatch.setattr(hyp, "_sinh_power_integral", counted)
    best = hyp.hyp_bound_optimized(200, 1.0, refined=True)
    assert len(calls) == 1
    m, s = calls[0]
    assert m == 199 and s[0] == 1.0
    assert len(s) == len(set(s)) == len(_candidate_angles(200)) + 1 == 23
    assert best.value == hyp.hyp_density_bound(200, 1.0, best.theta_star, True).value


def test_volume_and_radius_domains():
    for n in (1, 201):
        with pytest.raises(ValueError, match="2 <= n <= 200"):
            hyp.hyp_ball_volume(n, 1.0)
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="r > 0"):
            hyp.radius_from_angle(r, math.pi / 3)
    for theta in (0.0, -1.0, 3.5):
        with pytest.raises(ValueError, match="theta must lie in"):
            hyp.radius_from_angle(1.0, theta)
    # theta/2 underflows to 0, so sin(theta/2) is 0; one float up it is not
    with pytest.raises(ValueError, match=r"sin\(theta/2\) > 0"):
        hyp.radius_from_angle(1.0, 5e-324)
    assert hyp.radius_from_angle(1.0, 1e-323) == 1.0 - math.log(5e-324)


def test_optimized_walks_the_code_degree_once(monkeypatch):
    # the candidate angles acos(t_(n,k)) carry their degree k from the root
    # walk; only pi/3 asks for its degree, by Sturm counts
    calls = []
    code_degree = hyp._code_degree

    def counted(ctx, theta):
        calls.append(theta)
        return code_degree(ctx, theta)

    monkeypatch.setattr(hyp, "_code_degree", counted)
    for n in (2, 24, 200):
        calls.clear()
        best = hyp.hyp_bound_optimized(n, 1.0)
        assert calls == [math.pi / 3.0]
        assert best.k_star == kl_spherical_code_bound(n, best.theta_star)[1]
        assert best.value == hyp.hyp_density_bound(n, 1.0, best.theta_star).value


@pytest.mark.parametrize("n", [400, 1000])
def test_optimized_bisects_no_root(monkeypatch, n):
    # the roots up to t_(k0+1) are found once each, in ascending order, so
    # each starts from the roots below it and none falls back to bisection
    found, bisected = [], []
    root_near, bisect = orthopoly._root_near, orthopoly._bisect_largest

    def counted_near(b2, k, x):
        found.append(k)
        return root_near(b2, k, x)

    def counted_bisect(b2, k):
        bisected.append(k)
        return bisect(b2, k)

    monkeypatch.setattr(orthopoly, "_root_near", counted_near)
    monkeypatch.setattr(orthopoly, "_bisect_largest", counted_bisect)
    for r in (0.5, 2.0):
        found.clear()
        hyp.hyp_bound_optimized(n, r)
        assert found == list(range(2, {400: 39, 1000: 88}[n] + 2))
    assert bisected == []


def test_optimized_takes_the_left_end_at_n4():
    # the least bound lies on the piece that starts at pi/3, not at a root
    # angle: a search that never evaluates pi/3 lands on pi/2 (log 1.8115)
    best = hyp.hyp_bound_optimized(4, 0.25, refined=True)
    assert best.theta_star == math.pi / 3.0
    assert best.k_star == kl_spherical_code_bound(4, math.pi / 3.0)[1] == 2
    assert best.value.log_value == pytest.approx(1.6902138568112424, rel=1e-12)
