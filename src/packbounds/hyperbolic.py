"""Hyperbolic ball volumes, density bounds, and large-ball overlap fractions.

Ball volumes grow like e^((n-1)r), so they are returned log-scaled.  The
density bound projects sphere centers radially onto an enclosing sphere of
radius R with sinh R = sinh r / sin(theta/2) and pays either the clean
factor sin^(n-1)(theta/2) or the slightly sharper volume ratio
vol(B_r)/vol(B_R).

The overlap of two radius-R balls at center distance r, normalized by the
ball volume, is computed three ways: the exact R -> infinity limit through
the incomplete beta function, a finite-R double integral over triangle side
lengths, and a Monte-Carlo sampler in the hyperboloid model that serves as
an independent oracle for the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euclid_bounds import BoundRecord, kl_spherical_code_bound, shared_context
from .specfun import (
    LogScaled,
    Quadrature,
    golden_section_min,
    incomplete_beta,
    integrate,
    log_gamma,
)

__all__ = [
    "HyperbolicGeometry",
    "OverlapResult",
    "hyp_ball_volume",
    "radius_from_angle",
    "hyp_density_bound",
    "hyp_bound_optimized",
    "overlap_limit",
    "overlap_finite",
    "overlap_monte_carlo",
    "overlap_report",
    "hyperbolic_triangle_angle",
    "euclidean_triangle_angle",
]


def log_sphere_surface(n: int) -> float:
    """ln of the surface volume of the unit (n-1)-sphere in R^n."""
    return math.log(2.0) + (n / 2.0) * math.log(math.pi) - log_gamma(n / 2.0)


def hyp_ball_volume(n: int, r: float, quad: Quadrature | None = None) -> LogScaled:
    """Volume of a radius-r ball in H^n: Omega_n int_0^r sinh^(n-1) x dx."""
    if n < 2 or n > 200:
        raise ValueError("hyp_ball_volume requires 2 <= n <= 200")
    if not 0.0 < r <= 50.0:
        raise ValueError("hyp_ball_volume requires 0 < r <= 50")
    q = quad or Quadrature(rel_tol=1e-12)
    # scale by the integrand peak at x = r so the exponential never overflows
    peak = (n - 1) * math.log(math.sinh(r))

    def scaled(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lo = np.where(x > 0, (n - 1) * np.log(np.sinh(np.maximum(x, 1e-300))), -np.inf)
        return np.exp(lo - peak)

    res = integrate(scaled, 0.0, r, q)
    return LogScaled.from_log(log_sphere_surface(n) + peak + math.log(res.value))


def radius_from_angle(r: float, theta: float) -> float:
    """R with sinh R = sinh r / sin(theta/2); R in [r, 2r] when theta >= pi/3."""
    if r <= 0:
        raise ValueError("radius_from_angle requires r > 0")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    R = math.asinh(math.sinh(r) / math.sin(theta / 2.0))
    if theta >= math.pi / 3.0 - 1e-12:
        assert r * (1 - 1e-12) <= R <= 2 * r * (1 + 1e-12)
    return R


@dataclass(frozen=True)
class HyperbolicGeometry:
    """Packing radius r, projection angle theta, and the derived sphere
    radius R for balls in H^n."""

    n: int
    r: float
    theta: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("HyperbolicGeometry requires n >= 2")
        if not math.pi / 3.0 - 1e-12 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [pi/3, pi]")
        if self.r <= 0:
            raise ValueError("r must be positive")

    @property
    def R(self) -> float:
        return radius_from_angle(self.r, self.theta)

    def volume_ratio(self) -> LogScaled:
        """vol(B_r)/vol(B_R), always <= sin^(n-1)(theta/2)."""
        return hyp_ball_volume(self.n, self.r) / hyp_ball_volume(self.n, self.R)


def hyp_density_bound(
    n: int,
    r: float,
    theta: float,
    refined: bool = False,
    code_bound: LogScaled | None = None,
) -> BoundRecord:
    """Density bound for radius-r ball packings of H^n at projection angle
    theta: sin^(n-1)(theta/2) * A(n, theta), or with the volume ratio
    vol(B_r)/vol(B_R) in place of the sine power when ``refined``.

    ``code_bound`` substitutes a certified LP objective for the closed-form
    code bound.
    """
    geom = HyperbolicGeometry(n, r, theta)
    k_used = None
    if code_bound is None:
        code_bound, k_used = kl_spherical_code_bound(n, theta)
    if refined:
        factor = geom.volume_ratio()
        method = "hyp_refined"
    else:
        factor = LogScaled.from_log((n - 1) * math.log(math.sin(theta / 2.0)))
        method = "hyp_coarse"
    return BoundRecord(
        dimension=n,
        method=method,
        value=factor * code_bound,
        k_star=k_used,
        theta_star=theta,
        diagnostics={"r": r, "R": geom.R, "code_bound_log": code_bound.log_value},
    )


def hyp_bound_optimized(n: int, r: float, refined: bool = False) -> BoundRecord:
    """Minimize hyp_density_bound over theta in [pi/3, pi].

    Golden-section on the log objective locates the right neighborhood; the
    objective is piecewise in theta (the code bound jumps when the root
    degree k changes, and each piece is increasing), so the search then
    snaps to the candidate angles acos(t_(n,k)) and returns the best.
    """
    ctx = shared_context(n)

    def objective(theta: float) -> float:
        return hyp_density_bound(n, r, theta, refined).value.log_value

    best_theta = golden_section_min(objective, math.pi / 3.0, math.pi, 1e-6)
    best = objective(best_theta)

    k = 1
    while ctx.largest_root(k) <= 0.5:
        theta_k = math.acos(ctx.largest_root(k))
        val = objective(theta_k)
        if val < best:
            best, best_theta = val, theta_k
        k += 1
    if objective(math.pi) < best:
        best, best_theta = objective(math.pi), math.pi
    record = hyp_density_bound(n, r, best_theta, refined)
    return BoundRecord(
        dimension=n,
        method=record.method,
        value=record.value,
        k_star=record.k_star,
        theta_star=best_theta,
        diagnostics=dict(record.diagnostics, optimized=True),
    )


# ---------------------------------------------------------------------------
# Ball overlaps
# ---------------------------------------------------------------------------


def overlap_limit(n: int, r: float) -> float:
    """R -> infinity limit of vol(B_R(x1) ^ B_R(x2))/vol(B_R) at center
    distance r:  B(1/(1+e^r); (n-1)/2, (n-1)/2) / B(1/2; (n-1)/2, (n-1)/2).
    """
    if n < 2:
        raise ValueError("overlap_limit requires n >= 2")
    if r < 0:
        raise ValueError("overlap_limit requires r >= 0")
    a = (n - 1) / 2.0
    u = 1.0 / (1.0 + math.exp(r))
    return incomplete_beta(u, a, a) / incomplete_beta(0.5, a, a)


def _log_C(r1: float, r: float, r2, d_lo, d_hi_to_b) -> np.ndarray:
    # C = (cosh r2 - cosh|r - r1|)(cosh(r + r1) - cosh r2) written as
    # 4 sinh((r2+a)/2) sinh((r2-a)/2) sinh((b+r2)/2) sinh((b-r2)/2) with
    # a = |r - r1|, b = r + r1; the boundary gaps r2 - a and b - r2 are
    # passed in exactly, so there is no cancellation at the triangle edge
    a = abs(r - r1)
    b = r + r1
    return (
        math.log(4.0)
        + np.log(np.sinh((r2 + a) / 2.0))
        + np.log(np.sinh(d_lo / 2.0))
        + np.log(np.sinh((b + r2) / 2.0))
        + np.log(np.sinh(d_hi_to_b / 2.0))
    )


def overlap_finite(
    n: int,
    r: float,
    R: float,
    quad: Quadrature | None = None,
) -> float:
    """vol(B_R(x1) ^ B_R(x2))/vol(B_R) at center distance r, by the radial
    convolution integral over triangle side lengths (r, r1, r2):

        pref / sinh^(n-2) r * int int sinh r1 sinh r2 C^((n-3)/2) dr1 dr2,

    pref = 2 pi^((n-1)/2) / Gamma((n-1)/2), over r1, r2 <= R forming a
    triangle with r.  The integrand is evaluated in log scale (large n R
    would overflow) and the inner integral uses tanh-sinh, which absorbs
    the C^(-1/2) boundary singularity at n = 2.
    """
    if n < 2:
        raise ValueError("overlap_finite requires n >= 2")
    if R <= 0:
        raise ValueError("overlap_finite requires R > 0")
    if r < 0:
        raise ValueError("overlap_finite requires r >= 0")
    if r == 0.0:
        return 1.0
    if r >= 2.0 * R:
        return 0.0
    half = (n - 3) / 2.0
    r1_lo, r1_hi = max(0.0, r - R), R

    # overall scale from a coarse interior probe
    scale = -math.inf
    for x1 in np.linspace(r1_lo, r1_hi, 17)[1:-1]:
        lo, hi = abs(r - x1), min(r + x1, R)
        if hi <= lo:
            continue
        p2 = np.linspace(lo, hi, 17)[1:-1]
        logs = (
            np.log(np.sinh(x1))
            + np.log(np.sinh(p2))
            + half * _log_C(x1, r, p2, p2 - lo, (r + x1) - p2)
        )
        scale = max(scale, float(np.max(logs)))

    inner_q = Quadrature(rel_tol=1e-10, abs_tol=1e-14)

    def inner(r1: float) -> float:
        lo, hi = abs(r - r1), min(r + r1, R)
        length = hi - lo
        if length < 1e-14 or r1 <= 0.0:
            return 0.0
        slack = (r + r1) - hi  # 0 when the triangle edge, R-cut otherwise

        def f(tau: np.ndarray) -> np.ndarray:
            # r2 = lo + length sin^2(pi tau / 2): both boundary gaps are
            # computed exactly and C^((n-3)/2) becomes smooth in tau
            s2 = np.sin(0.5 * math.pi * tau) ** 2
            d_lo = length * s2
            d_hi = length - d_lo
            r2 = lo + d_lo
            jac = length * 0.5 * math.pi * np.sin(math.pi * tau)
            logs = (
                math.log(math.sinh(r1))
                + np.log(np.sinh(r2))
                + half * _log_C(r1, r, r2, d_lo, slack + d_hi)
                - scale
            )
            return np.exp(logs) * jac

        return integrate(f, 0.0, 1.0, inner_q, raise_on_failure=False).value

    outer_q = quad or Quadrature(rel_tol=1e-9, abs_tol=1e-13)
    outer = lambda arr: np.array([inner(float(x)) for x in arr])  # noqa: E731
    if r1_lo < r < r1_hi:  # |r - r1| kinks there
        res_val = (
            integrate(outer, r1_lo, r, outer_q).value
            + integrate(outer, r, r1_hi, outer_q).value
        )
    else:
        res_val = integrate(outer, r1_lo, r1_hi, outer_q).value
    log_pref = math.log(2.0) + ((n - 1) / 2.0) * math.log(math.pi) - log_gamma(
        (n - 1) / 2.0
    )
    log_conv = log_pref - (n - 2) * math.log(math.sinh(r)) + scale + math.log(res_val)
    vol = hyp_ball_volume(n, R)
    return math.exp(log_conv - vol.log_value)


# antiderivatives of sinh^(n-1) for the radial inverse-CDF sampler
_SINH_POWER_INTEGRAL = {
    2: lambda s: np.cosh(s) - 1.0,
    3: lambda s: (np.sinh(2.0 * s) - 2.0 * s) / 4.0,
    4: lambda s: (np.cosh(3.0 * s) - 9.0 * np.cosh(s) + 8.0) / 12.0,
}


def overlap_monte_carlo(
    n: int,
    r: float,
    R: float,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the finite-R overlap fraction.

    Points are drawn exactly uniformly in a radius-R ball of H^n using the
    hyperboloid model: radius by inverse CDF of the density sinh^(n-1),
    direction by normalized Gaussians; membership in the second ball at
    distance r is tested with the Minkowski form.  Returns (mean, stderr);
    deterministic for a fixed seed.
    """
    if n not in _SINH_POWER_INTEGRAL:
        raise ValueError("overlap_monte_carlo supports n in {2, 3, 4}")
    if samples < 10**4:
        raise ValueError("use at least 10^4 samples")
    if R <= 0 or r < 0:
        raise ValueError("need R > 0 and r >= 0")
    cdf = _SINH_POWER_INTEGRAL[n]
    total = cdf(R)
    rng = np.random.default_rng(seed)
    cosh_R, cosh_r, sinh_r = math.cosh(R), math.cosh(r), math.sinh(r)

    hits = 0
    chunk = 1 << 19
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        u = rng.random(m) * total
        lo = np.zeros(m)
        hi = np.full(m, R)
        for _ in range(60):  # vectorized bisection of the radial CDF
            mid = 0.5 * (lo + hi)
            below = cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        s = 0.5 * (lo + hi)
        w = rng.standard_normal((m, n))
        w1 = w[:, 0] / np.linalg.norm(w, axis=1)
        # cosh of the distance to the second center, via the Minkowski form
        cosh_d = np.cosh(s) * cosh_r - np.sinh(s) * sinh_r * w1
        hits += int(np.count_nonzero(cosh_d <= cosh_R))
        done += m
    mean = hits / samples
    stderr = math.sqrt(max(mean * (1.0 - mean), 0.0) / samples)
    return mean, stderr


@dataclass(frozen=True)
class OverlapResult:
    """Overlap fraction of two radius-R balls at center distance r: the
    asymptotic limit, finite-R values, and an optional Monte-Carlo check."""

    n: int
    r: float
    limit_value: float
    finite_R_values: tuple[tuple[float, float], ...]
    mc_estimate: tuple[float, float, int] | None = None


def overlap_report(
    n: int,
    r: float,
    R_values,
    mc_samples: int | None = None,
    seed: int = 0,
) -> OverlapResult:
    finite = tuple((float(R), overlap_finite(n, r, R)) for R in R_values)
    mc = None
    if mc_samples:
        mean, stderr = overlap_monte_carlo(n, r, max(R_values), mc_samples, seed)
        mc = (mean, stderr, mc_samples)
    return OverlapResult(
        n=n, r=r, limit_value=overlap_limit(n, r), finite_R_values=finite, mc_estimate=mc
    )


# ---------------------------------------------------------------------------
# Triangle angles (shared by the property suites)
# ---------------------------------------------------------------------------


def hyperbolic_triangle_angle(a: float, b: float, c: float) -> float:
    """Angle opposite side c in the hyperbolic triangle with sides a, b, c."""
    num = math.cosh(a) * math.cosh(b) - math.cosh(c)
    den = math.sinh(a) * math.sinh(b)
    return math.acos(max(-1.0, min(1.0, num / den)))


def euclidean_triangle_angle(a: float, b: float, c: float) -> float:
    """Angle opposite side c in the planar triangle with sides a, b, c."""
    cosg = (a * a + b * b - c * c) / (2.0 * a * b)
    return math.acos(max(-1.0, min(1.0, cosg)))
