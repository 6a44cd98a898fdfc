"""Hyperbolic ball volumes, density bounds, and large-ball overlap fractions.

Every ball volume comes from one helper, ``_sinh_power_integral``, for
F(s) = int_0^s sinh^(n-1) over sinh^(n-1) s.  Volumes grow like e^((n-1)r),
so they are returned log-scaled.  The density bound projects sphere centers
radially onto an enclosing sphere of radius R with sinh R = sinh r /
sin(theta/2) and pays either the clean factor sin^(n-1)(theta/2) or the
slightly sharper volume ratio vol(B_r)/vol(B_R), formed as one ratio of F.

The overlap of two radius-R balls at center distance r, normalized by the
ball volume, is computed three ways: the exact R -> infinity limit through
the incomplete beta function, a finite-R radial integral whose integrand is
the regularized incomplete beta share of each sphere about one center,
normalized by F(R), and a Monte-Carlo sampler in the hyperboloid model, an
independent oracle for the other two that draws radii by Newton's method on
ln F, without quadrature, for 2 <= n <= 200 and 1e-300 <= R <= 50.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .euclid_bounds import BoundRecord, kl_spherical_code_bound, shared_context
from .specfun import (
    LogScaled,
    incomplete_beta,
    integrate,
    log_gamma,
)

__all__ = [
    "hyp_ball_volume",
    "radius_from_angle",
    "hyp_density_bound",
    "hyp_bound_optimized",
    "overlap_limit",
    "overlap_finite",
    "overlap_monte_carlo",
]


def log_sphere_surface(n: int) -> float:
    """ln of the surface volume of the unit (n-1)-sphere in R^n."""
    return math.log(2.0) + (n / 2.0) * math.log(math.pi) - log_gamma(n / 2.0)


def hyp_ball_volume(n: int, r: float) -> LogScaled:
    """Volume of a radius-r ball in H^n: Omega_n int_0^r sinh^(n-1) x dx,
    for 2 <= n <= 200 and 1e-300 <= r <= 50, from ``_sinh_power_integral``."""
    if n < 2 or n > 200:
        raise ValueError("hyp_ball_volume requires 2 <= n <= 200")
    if not 1e-300 <= r <= 50.0:
        raise ValueError(f"hyp_ball_volume requires 1e-300 <= r <= 50, got r = {r}")
    (ratio,), (sh,) = _sinh_power_integral(n - 1, np.array([r]))
    log_f = math.log(ratio) + (n - 1) * math.log(sh)
    return LogScaled.from_log(log_sphere_surface(n) + log_f)


def radius_from_angle(r: float, theta: float) -> float:
    """R with sinh R = sinh r / sin(theta/2); R in [r, 2r] when theta >= pi/3."""
    if not r > 0:
        raise ValueError("radius_from_angle requires r > 0")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    s = math.sin(theta / 2.0)
    try:
        x = math.sinh(r) / s
    except OverflowError:
        x = math.inf
    # where sinh r / s overflows, e^(-2r) is far below an ulp of 1 and
    # asinh(sinh r / s) = r - ln s in double precision
    R = math.asinh(x) if x < math.inf else r - math.log(s)
    if theta >= math.pi / 3.0 - 1e-12:
        assert r * (1 - 1e-12) <= R <= 2 * r * (1 + 1e-12)
    return R


def _check_geometry(n: int, r: float, theta: float, refined: bool) -> None:
    """Reject arguments outside the bound's domain.  The refined bound needs
    vol(B_r) and vol(B_R) at R = R(r, theta), so it also requires n <= 200,
    r >= 1e-300 and R <= 50, the domain of ``hyp_ball_volume``."""
    if n < 2:
        raise ValueError("hyperbolic density bounds require n >= 2")
    if not math.pi / 3.0 - 1e-12 <= theta <= math.pi:
        raise ValueError("theta must lie in [pi/3, pi]")
    if r <= 0:
        raise ValueError("r must be positive")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if not refined:
        return
    if n > 200:
        raise ValueError(f"refined hyperbolic bounds require n <= 200, got n = {n}")
    if r < 1e-300:
        raise ValueError(f"refined hyperbolic bounds require r >= 1e-300, got r = {r}")
    R = radius_from_angle(r, theta)
    if R > 50.0:
        raise ValueError(
            f"refined hyperbolic bounds require the enclosing radius R <= 50; "
            f"r = {r} gives R = {R:.6g} at theta = {theta:.6g}"
        )


def hyp_density_bound(n: int, r: float, theta: float, refined: bool = False) -> BoundRecord:
    """Density bound for radius-r ball packings of H^n at projection angle
    theta: sin^(n-1)(theta/2) * A(n, theta), or with the volume ratio
    vol(B_r)/vol(B_R) in place of the sine power when ``refined``."""
    _check_geometry(n, r, theta, refined)
    return _density_records(n, r, [theta], refined)[0]


def _density_records(
    n: int, r: float, thetas: list[float], refined: bool
) -> list[BoundRecord]:
    """``hyp_density_bound`` at each angle, for checked arguments.  The
    refined factor F(r)/F(R), F = int_0 sinh^(n-1), takes one helper call
    over r and every R and is formed as one ratio: ln F itself reaches
    -1.4e5 at n = 200, r = 1e-300, where its ulp is 3e-11."""
    Rs = [radius_from_angle(r, theta) for theta in thetas]
    if refined:
        ratio, sh = _sinh_power_integral(n - 1, np.array([r, *Rs]))
        logs = [math.log(ratio[0] / q) + (n - 1) * math.log(sh[0] / x)
                for q, x in zip(ratio[1:], sh[1:])]
    else:
        logs = [(n - 1) * math.log(math.sin(theta / 2.0)) for theta in thetas]
    method = "hyp_refined" if refined else "hyp_coarse"
    codes = [kl_spherical_code_bound(n, theta) for theta in thetas]
    return [
        BoundRecord(n, method, LogScaled.from_log(log) * code, k, theta,
                    {"r": r, "R": R, "code_bound_log": code.log_value})
        for theta, R, log, (code, k) in zip(thetas, Rs, logs, codes)
    ]


def hyp_bound_optimized(n: int, r: float, refined: bool = False) -> BoundRecord:
    """Minimize hyp_density_bound over theta in [pi/3, pi].

    The code bound A(n, theta) is constant while its degree k is fixed, and
    both sin^(n-1)(theta/2) and vol(B_r)/vol(B_R(theta)) increase with
    theta, so on each piece the bound is least at the piece's left end:
    pi/3, or acos(t_(n,k)) for a root t_(n,k) <= 1/2.  The bound is
    evaluated once at each of these angles, in that order, and the first
    minimal record is returned.  R(r, theta) is largest at pi/3, so the
    domain check there covers every angle.
    """
    ctx = shared_context(n)
    _check_geometry(n, r, math.pi / 3.0, refined)
    thetas = [math.pi / 3.0]
    k = 1
    while ctx.largest_root(k) <= 0.5:
        thetas.append(math.acos(ctx.largest_root(k)))
        k += 1
    best = min(_density_records(n, r, thetas, refined), key=lambda rec: rec.value)
    return replace(best, diagnostics=dict(best.diagnostics, optimized=True))


# ---------------------------------------------------------------------------
# Ball overlaps
# ---------------------------------------------------------------------------


def overlap_limit(n: int, r: float) -> float:
    """R -> infinity limit of vol(B_R(x1) ^ B_R(x2))/vol(B_R) at center
    distance r:  B(1/(1+e^r); (n-1)/2, (n-1)/2) / B(1/2; (n-1)/2, (n-1)/2).
    """
    if n < 2:
        raise ValueError("overlap_limit requires n >= 2")
    if not 0.0 <= r < math.inf:
        raise ValueError("overlap_limit requires finite r >= 0")
    a = (n - 1) / 2.0
    try:
        u = 1.0 / (1.0 + math.exp(r))
    except OverflowError:
        u = math.exp(-r)  # 1 + e^(-r) rounds to 1 long before exp(r) overflows
    return incomplete_beta(u, a, a) / incomplete_beta(0.5, a, a)


# Below this radius two balls in H^n, n <= 200, overlap as in R^n to double
# precision: a ball's volume is Omega_n r^n / n (1 + (n-1) n r^2 / (6 (n+2))
# + ...), a correction under 3.3e-17.  The band quadrature loses digits there
# instead: (n-1) ln sinh s is as large as 1.4e5 at R = 1e-300, n = 200, so
# its rounding alone is 1e-11 relative.
_EUCLIDEAN_R = 1e-9


def overlap_finite(n: int, r: float, R: float) -> float:
    """vol(B_R(x1) ^ B_R(x2))/vol(B_R) at center distance r, as one radial
    integral.

    In polar coordinates about x1, the sphere of radius s lies in B_R(x2) on
    a cap whose share of the sphere is I_x((n-1)/2, (n-1)/2), with
    x = sinh((R+s-r)/2) sinh((R-s+r)/2) / (sinh s sinh r).  Spheres with
    s < R - r lie wholly inside, so with F(s) = int_0^s sinh^(n-1)

        overlap = [F(R-r) (only when r < R) + int_|R-r|^R sinh^(n-1)s I_x ds] / F(R).

    F = ratio * sinh^(n-1) comes from one ``_sinh_power_integral`` call at R
    and R - r, so the inside share is (ratio_(R-r)/ratio_R)
    (sinh(R-r)/sinh R)^(n-1), and the band, whose integrand is scaled by its
    peak sinh^(n-1) R, is divided by ratio_R.  s = |R-r| + L t^2,
    L = R - |R-r|, absorbs the x^((n-1)/2) edge at s = |R-r|.  Balls with
    R < 1e-9 are Euclidean to double precision, with the closed-form lens
    share I_(1 - q^2)((n+1)/2, 1/2), q = r/(2R).  R must lie in [1e-300, 50].
    """
    from scipy.special import betainc
    if not 2 <= n <= 200:
        raise ValueError(f"overlap_finite requires 2 <= n <= 200, got n = {n}")
    if not 1e-300 <= R <= 50.0:
        raise ValueError(f"overlap_finite requires 1e-300 <= R <= 50, got R = {R}")
    if not 0.0 <= r < math.inf:
        raise ValueError("overlap_finite requires finite r >= 0")
    if r == 0.0:
        return 1.0
    if r >= 2.0 * R:
        return 0.0
    if R < _EUCLIDEAN_R:
        # 1 - q^2 from the exact difference 2R - r, so r near 2R keeps its digits
        w = 2.0 * R
        return float(betainc((n + 1) / 2.0, 0.5, ((w - r) / w) * ((w + r) / w)))
    a = (n - 1) / 2.0
    # F(0) = 0, so the inside share vanishes when r >= R
    (ratio_R, ratio_in), (sinh_R, sinh_in) = _sinh_power_integral(
        n - 1, np.array([R, max(R - r, 0.0)]))
    lo = abs(R - r)
    length = R - lo
    # R+s-r and R-s+r from the exact offset d = s - |R-r|: 2(R-r)+d and
    # 2r-d, or d and 2R-d when r > R; forming them from s cancels at r << R
    near, far = (2.0 * (R - r), 2.0 * r) if r < R else (0.0, 2.0 * R)
    peak = (n - 1) * math.log(sinh_R)
    # each sinh factor of x times 2^e, e = -exponent of R: exact for every
    # normal x, and the products no longer underflow at R r < 1e-308
    e = -math.frexp(R)[1]
    sinh_r = math.ldexp(math.sinh(r), e)

    def band(t: np.ndarray) -> np.ndarray:
        d = length * t * t
        s = lo + d
        num = np.ldexp(np.sinh((near + d) / 2.0), e) * np.ldexp(np.sinh((far - d) / 2.0), e)
        x = num / (np.ldexp(np.sinh(s), e) * sinh_r)
        weight = np.exp((n - 1) * np.log(np.sinh(s)) - peak)
        return weight * betainc(a, a, np.minimum(x, 1.0)) * 2.0 * length * t

    res = integrate(band, 0.0, 1.0, rel_tol=1e-12)
    inside = ratio_in / ratio_R * (sinh_in / sinh_R) ** (n - 1)
    return float(inside + res.value / ratio_R)


def _sinh_power_integral(m: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F / sinh^m s, sinh s) for F(s) = int_0^s sinh^m x dx, m >= 1, s >= 0.

    F / sinh^m s follows I_k = sinh^(k-1) s cosh s / k - (k-1)/k I_(k-2),
    over sinh^k s, from I_0 = s and I_1 / sinh s = sinh s / (cosh s + 1).
    Each step scales old errors by csch^2 s, so where sinh s < 1 and m >= 2
    the series (tanh s / (m+1)) 2F1(1/2, 1; (m+3)/2; tanh^2 s) replaces it.
    """
    sh, ch = np.sinh(s), np.cosh(s)
    # at s = 0, and where the recurrence overflows and the series takes over
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coth, csch2 = ch / sh, 1.0 / (sh * sh)
        ratio = s if m % 2 == 0 else sh / (ch + 1.0)
        for k in range(m % 2 + 2, m + 1, 2):
            ratio = (coth - (k - 1) * csch2 * ratio) / k
    small = np.flatnonzero(sh < 1.0)
    if m >= 2 and small.size:
        tanh = sh[small] / ch[small]
        w = tanh * tanh
        term, total = np.ones_like(w), np.ones_like(w)
        for j in range(1, 57):  # each term is below w < 1/2 times the last
            term *= w * (j - 0.5) / ((m + 1) / 2.0 + j)
            total += term
        ratio[small] = tanh / (m + 1) * total
    return ratio, sh


def _radial_quantile(m: int, R: float, log_u: np.ndarray) -> np.ndarray:
    """s in [0, R] with F(s) / F(R) = e^log_u, F(s) = int_0^s sinh^m, by
    Newton's method on ln F: concave, so the iterates rise to the root after
    the first step, from min(((m+1) F)^(1/(m+1)), R) >= the root.  On F
    itself the steps shrink to 1/m where F grows like e^(m s).  u = 0 gives 0.
    """
    (ratio_R,), (sinh_R,) = _sinh_power_integral(m, np.array([R]))
    log_total = math.log(ratio_R) + m * math.log(sinh_R)
    s = np.minimum(np.exp((math.log(m + 1) + log_u + log_total) / (m + 1)), R)
    while True:
        ratio, sh = _sinh_power_integral(m, s)
        # ln F(s)/F(R) from ratios near 1, so that a huge ln F(R) cannot
        # swamp the step in rounding
        with np.errstate(divide="ignore", invalid="ignore"):
            log_cdf = np.log(ratio / ratio_R) + m * np.log(sh / sinh_R)
            step = np.where(s > 0.0, ratio * (log_cdf - log_u), 0.0)
        # a step takes at most half of s, so no overshoot reaches s <= 0
        s = np.minimum(np.maximum(s - step, 0.5 * s), R)
        if np.max(np.abs(step)) <= 1e-13 * R:
            return s


def overlap_monte_carlo(
    n: int,
    r: float,
    R: float,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the finite-R overlap fraction, for
    2 <= n <= 200, 1e-300 <= R <= 50 and finite r >= 0.

    Points are drawn exactly uniformly in a radius-R ball of H^n using the
    hyperboloid model: radius by Newton's method on the radial CDF, whose
    density is sinh^(n-1), without the quadrature of ``overlap_finite``;
    direction by normalized Gaussians.  Membership in the second ball at
    distance r is tested with the Minkowski form.  Returns (mean, stderr);
    deterministic for a fixed seed.
    """
    if not 2 <= n <= 200:
        raise ValueError(f"overlap_monte_carlo requires 2 <= n <= 200, got n = {n}")
    # below about 1e-300, R/2 and F(R)/sinh^(n-1) R ~ R/n near the subnormal floats
    if not (1e-300 <= R <= 50.0 and 0.0 <= r < math.inf):
        raise ValueError(f"overlap_monte_carlo requires 1e-300 <= R <= 50 and finite r >= 0, "
                         f"got R = {R}, r = {r}")
    if samples < 10**4:
        raise ValueError("use at least 10^4 samples")
    if r >= 2.0 * R:  # disjoint balls; cosh r may overflow
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    sinh_hR = math.sinh(R / 2.0)
    b, cosh_r, cosh_hr = math.sinh(r / 2.0) / sinh_hR, math.cosh(r), math.cosh(r / 2.0)

    hits = 0
    chunk = (1 << 21) // max(n, 4)  # caps the (chunk, n) Gaussian block at 16 MB
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        with np.errstate(divide="ignore"):
            s = _radial_quantile(n - 1, R, np.log(rng.random(m)))
        w = rng.standard_normal((m, n))
        w1 = w[:, 0] / np.linalg.norm(w, axis=1)
        # (cosh d - 1)/(cosh R - 1) at the distance d to the second center, by
        # the Minkowski form and cosh x - 1 = 2 sinh^2(x/2): cosh x alone
        # rounds to 1 once x^2 < 1e-16.  s <= R, so a <= 1 but for rounding.
        a = np.minimum(np.sinh(s / 2.0) / sinh_hR, 1.0)
        q = a * a * cosh_r + b * b - 2.0 * a * b * np.cosh(s / 2.0) * cosh_hr * w1
        hits += int(np.count_nonzero(q <= 1.0))
        done += m
    mean = hits / samples
    stderr = math.sqrt(max(mean * (1.0 - mean), 0.0) / samples)
    return mean, stderr
