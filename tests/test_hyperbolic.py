import math
import tracemalloc

import numpy as np
import pytest

from packbounds import hyperbolic as hyp
from packbounds.euclid_bounds import kl_spherical_code_bound, shared_context

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
# shares are written as acos(c)/pi and (1 - c)/2, without the beta function
MPMATH_OVERLAPS = {
    (2, 1.0, 2.0): 0.59974498407011839097,
    (2, 2.0, 8.0): 0.44846415776056563692,
    (4, 2.0, 8.0): 0.13462714847035289915,
    (3, 0.5, 3.0): 0.74887307982854807958,
    (2, 3.0, 2.0): 0.087199546534132886521,  # r > R: no sphere lies wholly inside
    (3, 3.0, 2.0): 0.028629113456762083998,
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
    euclid = hyp.log_sphere_surface(n) + n * math.log(r) - math.log(n)
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
    assert hyp.overlap_finite(*key) == pytest.approx(MPMATH_OVERLAPS[key], rel=1e-12, abs=0)


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
    for bad in [(3, -1.0), (3, nan), (3, inf)]:
        with pytest.raises(ValueError):
            hyp.overlap_limit(*bad)
    # the overlap checks its own domain, naming R
    with pytest.raises(ValueError, match="overlap_finite requires 1e-300 <= R <= 50"):
        hyp.overlap_finite(3, 1.0, 100.0)


def test_overlap_tends_to_limit():
    limit = hyp.overlap_limit(20, 1.0)
    gaps = [abs(hyp.overlap_finite(20, 1.0, R) - limit) for R in (3.0, 6.0, 12.0, 30.0)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-12 * limit


@pytest.mark.parametrize("n, r, R", [(2, 1.0, 2.0), (3, 1.0, 2.0), (4, 1.0, 2.0), (3, 3.0, 2.0)])
def test_overlap_agrees_with_monte_carlo(n, r, R):
    mean, stderr = hyp.overlap_monte_carlo(n, r, R, 200_000, seed=11)
    assert abs(mean - hyp.overlap_finite(n, r, R)) <= 4.0 * stderr


# (mean, stderr) of the bisection sampler that Newton's method replaced, at
# the test seed and at the benchmark's first seed: the draws are the same,
# and the radii agree closely enough that no sample changes sides
MONTE_CARLO_PINS = {
    (2, 11): (0.60042, 0.001095252992691643),
    (3, 11): (0.479785, 0.001117119854301677),
    (4, 11): (0.38997, 0.0010906268818894939),
    (2, 1): (0.59992, 0.0010954816146334907),
    (3, 1): (0.480485, 0.0011171820907421492),
    (4, 1): (0.3904, 0.0010908433434732962),
}


@pytest.mark.parametrize("n, seed", sorted(MONTE_CARLO_PINS))
def test_monte_carlo_bytes_pinned(n, seed):
    assert hyp.overlap_monte_carlo(n, 1.0, 2.0, 200_000, seed=seed) == MONTE_CARLO_PINS[n, seed]


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
    # cosh r overflows, but the balls are disjoint whenever r >= 2R
    assert hyp.overlap_monte_carlo(3, 800.0, 2.0, 10**4) == (0.0, 0.0)


def test_monte_carlo_memory_is_bounded():
    tracemalloc.start()
    try:
        hyp.overlap_monte_carlo(200, 0.05, 2.0, 40_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (40 000, 200) Gaussian block alone would take 64 MB
    assert peak < 40e6


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
    assert math.isclose(volume, hyp.log_sphere_surface(n) + log_ref, rel_tol=1e-14)


@pytest.mark.parametrize("n, s", sorted(SINH_POWER_INTEGRALS))
def test_radial_quantile_takes_few_newton_steps(n, s, monkeypatch):
    # at R = 2 and, for the point near R = 40, where F = e^(7797) overflows;
    # ln F(R) is e^(249) at n = 200, R = 2, and e^(7817) at R = 40
    R = 40.0 if s > 2.0 else 2.0
    (ratio_R,), (sinh_R,) = hyp._sinh_power_integral(n - 1, np.array([R]))
    log_u = SINH_POWER_INTEGRALS[n, s][1] - math.log(ratio_R) - (n - 1) * math.log(sinh_R)
    # one evaluation of F for ln F(R), then one per Newton step
    calls = []
    cdf = hyp._sinh_power_integral
    monkeypatch.setattr(hyp, "_sinh_power_integral", lambda m, x: calls.append(x) or cdf(m, x))
    (got,) = hyp._radial_quantile(n - 1, R, np.array([log_u]))
    assert math.isclose(got, s, rel_tol=1e-13)
    assert 1 <= len(calls) - 1 <= 12


@pytest.mark.parametrize("n", [2, 4, 8, 24, 100])
@pytest.mark.parametrize("r", [0.25, 1.0, 2.0])
def test_refined_at_most_coarse(n, r):
    for theta in (math.pi / 3.0, 1.3, math.pi / 2.0, 2.5, math.pi):
        coarse = hyp.hyp_density_bound(n, r, theta)
        refined = hyp.hyp_density_bound(n, r, theta, refined=True)
        assert refined.value <= coarse.value
    assert hyp.hyp_bound_optimized(n, r, True).value <= hyp.hyp_bound_optimized(n, r).value


def _candidate_angles(n):
    ctx = shared_context(n)
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


def test_optimized_takes_the_left_end_at_n4():
    # the least bound lies on the piece that starts at pi/3, not at a root
    # angle: a search that never evaluates pi/3 lands on pi/2 (log 1.8115)
    best = hyp.hyp_bound_optimized(4, 0.25, refined=True)
    assert best.theta_star == math.pi / 3.0
    assert best.k_star == kl_spherical_code_bound(4, math.pi / 3.0)[1] == 2
    assert best.value.log_value == pytest.approx(1.6902138568112424, rel=1e-12)
