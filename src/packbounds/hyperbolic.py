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
ln F, without quadrature, and direction cosines from two uniforms, without
the beta function.  A table of the radial quantile at 2048 nodes brackets
each radius.  The bracket settles the side of the second sphere for nearly
every sample, and Newton solves only the radii of the rest.
Each function that needs a ball volume checks its domain, 2 <= n <= 200
and a radius in [1e-300, 50], by one helper, ``_check_ball``.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .euclid_bounds import BoundRecord, _code_bound_log, _code_degree, kl_spherical_code_bound
from .orthopoly import GegenbauerContext
from .specfun import LogScaled, _sphere_area, integrate

__all__ = [
    "hyp_ball_volume",
    "radius_from_angle",
    "hyp_density_bound",
    "hyp_bound_optimized",
    "overlap_limit",
    "overlap_finite",
    "overlap_monte_carlo",
]


def _check_ball(who: str, n: int, name: str, radius: float) -> None:
    """Reject a ball outside the volume's domain, 2 <= n <= 200 and
    1e-300 <= radius <= 50, naming the function and its radius."""
    if not 2 <= n <= 200:
        raise ValueError(f"{who} requires 2 <= n <= 200, got n = {n}")
    if not 1e-300 <= radius <= 50.0:
        raise ValueError(f"{who} requires 1e-300 <= {name} <= 50, got {name} = {radius}")


def hyp_ball_volume(n: int, r: float) -> LogScaled:
    """Volume of a radius-r ball in H^n: Omega_n int_0^r sinh^(n-1) x dx,
    for 2 <= n <= 200 and 1e-300 <= r <= 50, from ``_sinh_power_integral``."""
    _check_ball("hyp_ball_volume", n, "r", r)
    (ratio,), (sh,) = _sinh_power_integral(n - 1, np.array([r]))
    log_f = math.log(ratio) + (n - 1) * math.log(sh)
    return LogScaled.from_log(math.log(_sphere_area(n)) + log_f)


def radius_from_angle(r: float, theta: float) -> float:
    """R with sinh R = sinh r / sin(theta/2); R in [r, 2r] when theta >= pi/3."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius_from_angle requires finite r > 0, got r = {r}")
    s = math.sin(theta / 2.0) if 0.0 < theta <= math.pi else 0.0
    if s == 0.0:  # also where theta/2 underflows to 0
        raise ValueError(f"theta must lie in (0, pi] with sin(theta/2) > 0, got {theta}")
    try:
        x = math.sinh(r) / s
    except OverflowError:
        x = math.inf
    # where sinh r / s overflows, e^(-2r) is far below an ulp of 1 and
    # asinh(sinh r / s) = r - ln s in double precision
    R = math.asinh(x) if x < math.inf else r - math.log(s)
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
    code, k = kl_spherical_code_bound(n, theta)
    return _least_density_record(n, r, [theta], [k], [code.log_value], refined)


def _least_density_record(n: int, r: float, thetas: list[float], degrees: list[int],
                          code_logs: list[float], refined: bool, **extra) -> BoundRecord:
    """The record of the first least log ``hyp_density_bound`` over the
    angles, given each one's code bound degree k and ln A(n, theta), for
    checked arguments, with ``extra`` diagnostics.  The refined factor
    F(r)/F(R), F = int_0 sinh^(n-1), takes one helper call over r and every
    R and is one ratio: ln F reaches -1.4e5 at n = 200, r = 1e-300."""
    Rs = [radius_from_angle(r, theta) for theta in thetas]
    if refined:
        ratio, sh = _sinh_power_integral(n - 1, np.array([r, *Rs]))
        logs = [math.log(ratio[0] / q) + (n - 1) * math.log(sh[0] / x)
                for q, x in zip(ratio[1:], sh[1:])]
    else:
        logs = [(n - 1) * math.log(math.sin(theta / 2.0)) for theta in thetas]
    values = [log + code for log, code in zip(logs, code_logs)]
    i = values.index(min(values))
    return BoundRecord(
        n, "hyp_refined" if refined else "hyp_coarse", LogScaled.from_log(values[i]),
        degrees[i], thetas[i], {"r": r, "R": Rs[i], "code_bound_log": code_logs[i], **extra})


def hyp_bound_optimized(n: int, r: float, refined: bool = False) -> BoundRecord:
    """Minimize hyp_density_bound over theta in [pi/3, pi].

    The code bound A(n, theta) is constant while its degree k is fixed, and
    both sin^(n-1)(theta/2) and vol(B_r)/vol(B_R(theta)) increase with
    theta, so on each piece the bound is least at the piece's left end:
    pi/3, or acos(t_(n,k)) for a root t_(n,k) <= 1/2.  The bound's log is
    formed at each of these angles, in that order, and the first least
    becomes the one record.  R(r, theta) is largest at pi/3, so the domain
    check there covers every angle.  The degree k0 at pi/3, the first whose
    root reaches 1/2, comes from Sturm counts alone; the root angles are
    those of k < k0, and one ascending walk finds t_1..t_(k0+1), each root
    once.
    """
    _check_geometry(n, r, math.pi / 3.0, refined)
    ctx = GegenbauerContext(n)
    k0 = _code_degree(ctx, math.pi / 3.0)
    roots = ctx.largest_roots(k0 + 1)  # roots[k] = t_(k+1)
    thetas = [math.pi / 3.0, *map(math.acos, roots[: k0 - 1])]
    degrees = [k0, *range(1, k0)]
    code_logs = [_code_bound_log(n, k, roots[k]) for k in degrees]
    return _least_density_record(n, r, thetas, degrees, code_logs, refined, optimized=True)


# ---------------------------------------------------------------------------
# Ball overlaps
# ---------------------------------------------------------------------------


def overlap_limit(n: int, r: float) -> float:
    """R -> infinity limit of vol(B_R(x1) ^ B_R(x2))/vol(B_R) at center
    distance r: B(u; a, a) / B(1/2; a, a), u = 1/(1+e^r), a = (n-1)/2, as
    I_u(a, a) / I_(1/2)(a, a): B(a, a), which underflows near n = 1 080, cancels."""
    from scipy.special import betainc
    if n < 2:
        raise ValueError("overlap_limit requires n >= 2")
    if not 0.0 <= r < math.inf:
        raise ValueError("overlap_limit requires finite r >= 0")
    a = (n - 1) / 2.0
    try:
        u = 1.0 / (1.0 + math.exp(r))
    except OverflowError:
        u = math.exp(-r)  # 1 + e^(-r) rounds to 1 long before exp(r) overflows
    return float(betainc(a, a, u) / betainc(a, a, 0.5))


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
    _check_ball("overlap_finite", n, "R", R)
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
    # each sinh factor of x times 2^e, e = -exponent of R for R < 1/2 and 0
    # above: exact for every normal x, and the products no longer underflow
    # at R r < 1e-308 (scaling down at R >= 1 would flush sinh r to 0)
    e = max(-math.frexp(R)[1], 0)
    sinh_r = math.ldexp(math.sinh(r), e)

    def band(t: np.ndarray) -> np.ndarray:
        d = length * t * t
        s = lo + d
        num = np.ldexp(np.sinh((near + d) / 2.0), e) * np.ldexp(np.sinh((far - d) / 2.0), e)
        x = num / (np.ldexp(np.sinh(s), e) * sinh_r)
        weight = np.exp((n - 1) * np.log(np.sinh(s) / sinh_R))
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


# 2^15 samples per block keep Newton's temporaries in cache; smaller blocks
# pay too often for the series' fixed loop in _sinh_power_integral
_QUANTILE_NODES = 2048
_QUANTILE_BLOCK = 1 << 15
# overlap_monte_carlo draws and tests its samples _MC_BLOCK at a time (about
# 1.2 MB with temporaries): the stream's unit, on which every seeded estimate
# depends
_MC_BLOCK = 1 << 14


def _direction_cosine(n: int, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cos(pi v) rho, exactly the cosine between a uniform direction of R^n
    and a fixed axis, from uniforms z and v.  A uniform point of S^(n-1)
    projected onto two axes has a uniform angle and 1 - rho^2 = z^(2/(n-2))
    (Archimedes' projection theorem at n = 3), here by -expm1, which keeps
    its digits at large n; rho = 1 at n = 2."""
    w1 = np.cos(np.pi * v)
    if n > 2:
        with np.errstate(divide="ignore"):  # z = 0 gives rho = 1
            w1 *= np.sqrt(-np.expm1(np.log(z) * (2.0 / (n - 2))))
    return w1


def _radial_quantile(m: int, R: float) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """The map log_u -> s in [0, R] with F(s) / F(R) = e^log_u, F(s) =
    int_0^s sinh^m, by Newton's method on ln F: concave, so from any start
    the iterates rise to the root after the first step.  On F itself the
    steps shrink to 1/m where F grows like e^(m s).  u = 0 gives 0 and u = 1
    gives R, both exactly.  Returned with its node table s_0 = 0, ..., s_K = R.

    Each _QUANTILE_BLOCK of samples starts from the power-law start
    min(((m+1) F)^(1/(m+1)), R), which is >= the root, since F(s) >=
    s^(m+1)/(m+1), and steps until its block's largest step is at most
    1e-13 R.  The table is the same map at the nodes t_j = j/K,
    K = _QUANTILE_NODES, t = u^(1/(m+1)); s is about linear in t for small
    s.  The quantile increases with t, so a sample with t in
    [t_j, t_(j+1)] has its radius in [s_j, s_(j+1)] up to the 1e-13 R of
    the stopping rule: ``overlap_monte_carlo`` decides most samples from
    that bracket alone.
    """
    (ratio_R,), (sinh_R,) = _sinh_power_integral(m, np.array([R]))
    # ((m+1) F(R))^(1/(m+1)), so that the power-law start is slope * t
    slope = math.exp((math.log(m + 1) + math.log(ratio_R) + m * math.log(sinh_R)) / (m + 1))

    def quantile(log_u: np.ndarray) -> np.ndarray:
        out = np.empty_like(log_u)
        for lo in range(0, log_u.size, _QUANTILE_BLOCK):
            block = log_u[lo:lo + _QUANTILE_BLOCK]
            s = np.minimum(slope * np.exp(block / (m + 1)), R)
            while True:
                ratio, sh = _sinh_power_integral(m, s)
                # ln F(s)/F(R) from ratios near 1, so that a huge ln F(R)
                # cannot swamp the step in rounding
                with np.errstate(divide="ignore", invalid="ignore"):
                    log_cdf = np.log(ratio / ratio_R) + m * np.log(sh / sinh_R)
                    step = np.where(s > 0.0, ratio * (log_cdf - block), 0.0)
                # a step takes at most half of s, so no overshoot reaches s <= 0
                s = np.minimum(np.maximum(s - step, 0.5 * s), R)
                if np.max(np.abs(step)) <= 1e-13 * R:
                    break
            out[lo:lo + _QUANTILE_BLOCK] = s
        return out

    K = _QUANTILE_NODES
    table = np.concatenate(([0.0], quantile((m + 1) * np.log(np.arange(1, K) / K)), [R]))
    return quantile, table


def _index(name: str, value) -> int:
    """``value`` as an integer, or a ValueError naming ``overlap_monte_carlo``'s argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(
            f"overlap_monte_carlo requires an integer {name}, got {name} = {value!r}") from None


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
    hyperboloid model: radius by the inverse of the radial CDF, whose
    density is sinh^(n-1), without the quadrature of ``overlap_finite``;
    direction cosines by ``_direction_cosine``, O(1) per sample.  Returns
    (mean, stderr); deterministic for a fixed seed.

    A point at radius s whose direction makes cosine w1 with the second
    center lies in the second ball exactly when w1 >= c(s), by the
    hyperbolic law of cosines, with

        c(s) = (cosh r cosh s - cosh R) / (sinh r sinh s) = (1 - P) / Q,

    P = a^2 cosh r + b^2, Q = -2ab cosh(s/2) cosh(r/2), a = sinh(s/2) /
    sinh(R/2), b = sinh(r/2) / sinh(R/2): the test q = P + Q w1 <= 1 on
    (cosh d - 1)/(cosh R - 1) at the distance d to the second center, which
    keeps its digits where cosh of a radius rounds to 1.  c' has the sign of
    cosh R cosh s - cosh r, so c rises on (0, R] when r <= R and otherwise
    falls to its minimum at s0, sinh^2(s0/2) = (sinh^2(r/2) - sinh^2(R/2)) /
    cosh R (in this half-angle form, since acosh(cosh r / cosh R) is 0 for
    tiny balls), and then rises.  Over one bracket [s_j, s_(j+1)] of the
    quantile table (``_radial_quantile``) c is therefore largest at an end
    and least at an end or at s0.  Each bracket is widened by 1e-9 R, far
    beyond the 1e-13 R of the table and of Newton, and its highest and
    lowest c by 1e-9, beyond the rounding of c and q, so a sample with
    w1 >= the high threshold is a hit and one with w1 < the low threshold a
    miss in the polished test too.  The rest, about 5 in 10^4 samples at
    r = 1, R = 2, n = 2..4, take that test: the radius by Newton from the
    power-law start, then q.  The draws do not depend on how the radii are
    solved: each block of ``_MC_BLOCK`` samples draws one (3, block) array of
    uniforms, for ln u, z and v, and keeps only its open samples, which are
    polished together after the last block.

    c is evaluated under ``np.errstate``: Q = 0 at s = 0 or r = 0 gives
    +-inf, and 0/0 (at s = 0 when r = R, at s = R when r = 0) gives nan,
    which decides nothing and leaves its samples to the polished test.
    """
    # below about 1e-300, R/2 and F(R)/sinh^(n-1) R ~ R/n near the subnormal floats
    _check_ball("overlap_monte_carlo", n, "R", R)
    if not 0.0 <= r < math.inf:
        raise ValueError(f"overlap_monte_carlo requires finite r >= 0, got r = {r}")
    samples, seed = _index("samples", samples), _index("seed", seed)
    if samples < 10**4:
        raise ValueError("use at least 10^4 samples")
    if seed < 0:
        raise ValueError(f"overlap_monte_carlo requires a seed >= 0, got seed = {seed}")
    if r >= 2.0 * R:  # disjoint balls; cosh r may overflow
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    sinh_hR = math.sinh(R / 2.0)
    b, cosh_r, cosh_hr = math.sinh(r / 2.0) / sinh_hR, math.cosh(r), math.cosh(r / 2.0)

    def terms(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # P and Q of q = P + Q w1; s <= R, so a <= 1 but for rounding
        a = np.minimum(np.sinh(s / 2.0) / sinh_hR, 1.0)
        return a * a * cosh_r + b * b, -2.0 * a * b * np.cosh(s / 2.0) * cosh_hr

    quantile, table = _radial_quantile(n - 1, R)
    K = table.size - 1
    ends = [np.maximum(table[:-1] - 1e-9 * R, 0.0), np.minimum(table[1:] + 1e-9 * R, R)]
    if r > R:
        # sinh(R/2) (b^2 - 1)^(1/2), not the difference of squares, which
        # underflows at R = 1e-300
        s0 = 2.0 * math.asinh(sinh_hR * math.sqrt((b - 1.0) * (b + 1.0) / math.cosh(R)))
        ends.append(np.where((ends[0] <= s0) & (s0 <= ends[1]), s0, ends[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.array([(1.0 - P) / Q for P, Q in map(terms, ends)])
    high = np.max(c[:2], axis=0) + 1e-9
    low = np.min(c, axis=0) - 1e-9

    hits, open_log_u, open_w1 = 0, [], []
    for lo in range(0, samples, _MC_BLOCK):
        log_u, z, v = rng.random((3, min(_MC_BLOCK, samples - lo)))
        with np.errstate(divide="ignore"):
            np.log(log_u, out=log_u)
        w1 = _direction_cosine(n, z, v)
        # each sample's bracket, as the quantile map finds it
        j = np.minimum((np.exp(log_u / n) * K).astype(np.intp), K - 1)
        hit = w1 >= high[j]
        # a nan threshold fails both comparisons and leaves its samples open
        keep = np.flatnonzero(~(hit | (w1 < low[j])))
        hits += int(np.count_nonzero(hit))
        open_log_u.append(log_u[keep])
        open_w1.append(w1[keep])
    P, Q = terms(quantile(np.concatenate(open_log_u)))
    hits += int(np.count_nonzero(P + Q * np.concatenate(open_w1) <= 1.0))
    mean = hits / samples
    stderr = math.sqrt(max(mean * (1.0 - mean), 0.0) / samples)
    return mean, stderr
