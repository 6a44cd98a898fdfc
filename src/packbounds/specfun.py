"""Log-scaled arithmetic, quadrature, and special-function primitives.

Everything downstream (density bounds up to dimension 600, hyperbolic
volumes, overlap integrals) funnels through this module, so all magnitudes
are either kept as natural logs (:class:`LogScaled`) or scaled analytically
before a single ``exp`` is taken.

Every integral in the package runs one quadrature rule, the adaptive
16/32-point Gauss-Legendre of :func:`integrate`; callers absorb endpoint
edges by a change of variable before they integrate.

``scipy.special`` (Faddeeva, Bessel J, incomplete beta) is imported on
first use, inside the functions that call it: the Gegenbauer, LP and
hyperbolic-bound paths never need it, and importing it would more than
double the time of a cold ``import packbounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "LogScaled",
    "QuadResult",
    "NonConvergenceError",
    "IntegrandError",
    "integrate",
    "integrate_real_line",
    "log_gamma",
    "log_binomial",
    "scaled_erfc_complex",
    "bessel_first_zero",
    "incomplete_beta",
    "golden_section_min",
]

LN10 = math.log(10.0)

# Nats below the peak at which infinite-interval integrands are truncated.
TAIL_NATS = 40.0
# Refinement cap: panel splits of the adaptive Gauss-Legendre rule.
GL_MAX_SPLITS = 2000


class NonConvergenceError(RuntimeError):
    """A quadrature or root search failed to reach its tolerance."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class IntegrandError(ValueError):
    """The integrand produced NaN where it was sampled."""


# ---------------------------------------------------------------------------
# Log-scaled nonnegative reals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class LogScaled:
    """A positive real stored as the natural log of its magnitude.

    Densities in high dimension reach 1e-100 and hyperbolic volumes reach
    e^(n r); both live comfortably here while ordinary binary floats do not.
    Multiplication is addition of ``log_value``, and values order as their
    logs do.
    """

    log_value: float

    @staticmethod
    def from_log(log_value: float) -> "LogScaled":
        return LogScaled(float(log_value))

    def __mul__(self, other: "LogScaled") -> "LogScaled":
        return LogScaled(self.log_value + other.log_value)

    @property
    def log10(self) -> float:
        return self.log_value / LN10

    def to_float(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def mantissa_exponent(self) -> tuple[float, int]:
        """Scientific-notation split: mantissa in [1, 10) and decimal exponent."""
        l10 = self.log_value / LN10
        e = math.floor(l10)
        m = 10.0 ** (l10 - e)
        if m >= 10.0:  # roundoff at a decade boundary
            m /= 10.0
            e += 1
        if m < 1.0:
            m *= 10.0
            e -= 1
        return m, e


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadResult:
    value: complex | float
    error: float
    nevals: int
    converged: bool


# the nested 16/32-point Gauss-Legendre pair, abscissae concatenated so that
# each panel makes one call of the integrand
_X16, _W16 = leggauss(16)
_X32, _W32 = leggauss(32)
_X48 = np.concatenate((_X16, _X32))


def _check_finite(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)):
        raise IntegrandError("integrand returned a non-finite value")


def _panel(f, a: float, b: float) -> tuple[complex, float, int]:
    """Estimate over one panel with nested 16/32-point Gauss-Legendre."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _X48))
    _check_finite(vals)
    coarse = half * np.sum(_W16 * vals[:16])
    fine = half * np.sum(_W32 * vals[16:])
    return complex(fine), abs(fine - coarse), 48


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-11,
    abs_tol: float = 0.0,
) -> QuadResult:
    """Integrate a vectorized real- or complex-valued ``f`` over [a, b].

    ``f`` receives an ndarray of abscissae and must return the values
    elementwise.  The rule is adaptive nested 16/32-point Gauss-Legendre:
    the panel with the largest error estimate is halved until the summed
    estimate is at most ``max(rel_tol*|I|, abs_tol)``.  Endpoint edges such
    as (b - x)^(1/2) are for the caller to absorb by a substitution.  If
    the target is not met a :class:`NonConvergenceError` is raised with the
    unconverged result as its ``partial``.  Identical inputs always produce
    bit-identical outputs.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    est, err, nev = _panel(f, a, b)
    panels = [(a, b, est, err)]
    total, total_err = est, err
    for _ in range(GL_MAX_SPLITS):
        if total_err <= max(rel_tol * abs(total), abs_tol):
            break
        # split the worst panel; ties resolve to the leftmost for determinism
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        pa, pb, pest, perr = panels.pop(worst)
        pm = 0.5 * (pa + pb)
        le, lerr, ln_ = _panel(f, pa, pm)
        re_, rerr, rn = _panel(f, pm, pb)
        nev += ln_ + rn
        panels.append((pa, pm, le, lerr))
        panels.append((pm, pb, re_, rerr))
        total = sum(p[2] for p in panels)
        total_err = sum(p[3] for p in panels)
    value = total.real if total.imag == 0 else total
    converged = bool(total_err <= max(rel_tol * abs(total), abs_tol))
    res = QuadResult(value, float(total_err), nev, converged)
    if not res.converged:
        raise NonConvergenceError(
            f"quadrature did not reach tolerance on [{a}, {b}] "
            f"(error estimate {res.error:.3e})",
            partial=res,
        )
    return res


def integrate_real_line(f: Callable[[np.ndarray], np.ndarray]) -> QuadResult:
    """Integrate over (-inf, inf) after truncating the tails.

    The caller passes an integrand scaled so that its peak lies near 0
    with |f(0)| = 1.  The interval is cut where log|f| falls
    :data:`TAIL_NATS` nats below that; both cuts are located by outward
    doubling, one call of ``f`` per step serving both sides.
    """
    floor = math.exp(-TAIL_NATS)
    lo = hi = None
    u = 1.0
    for _ in range(60):
        vals = np.asarray(f(np.array([-u, u])))
        if lo is None and abs(complex(vals[0])) < floor:
            lo = -u
        if hi is None and abs(complex(vals[1])) < floor:
            hi = u
        if lo is not None and hi is not None:
            return integrate(f, lo, hi)
        u *= 2.0
    raise NonConvergenceError("could not locate an integrable tail")


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_binomial(a: int, b: int) -> float:
    """ln C(a, b) for integers 0 <= b <= a, via log-gamma."""
    if a < 0 or b < 0:
        raise ValueError("log_binomial requires nonnegative integers")
    if b > a:
        raise ValueError(f"log_binomial requires b <= a, got ({a}, {b})")
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def scaled_erfc_complex(z):
    """exp(z^2) * erfc(z) for complex z (entire, overflow-free).

    Equals the Faddeeva function w evaluated at iz; accepts scalars or
    arrays.
    """
    from scipy.special import wofz
    return wofz(1j * np.asarray(z, dtype=complex))


def _first_zero_seed(nu: float) -> float:
    # Large-order expansion of the first positive zero; crude interpolation
    # below nu = 1 where the expansion degrades (Newton cleans it up).
    if nu < 1.0:
        return 2.404826 + nu * (3.831706 - 2.404826)
    c = nu ** (1.0 / 3.0)
    return (
        nu
        + 1.8557571 * c
        + 1.033150 / c
        - 0.00397 / nu
        - 0.0908 / (c ** 5)
        + 0.043 / (c ** 7)
    )


def _newton_in_bracket(nu: float, lo: float, hi: float) -> float:
    """Polish a sign-change bracket J(lo) > 0 > J(hi) by safeguarded Newton."""
    from scipy.special import jv
    x = 0.5 * (lo + hi)
    for _ in range(100):
        fx = jv(nu, x)
        if fx > 0:
            lo = x
        else:
            hi = x
        dfx = 0.5 * (jv(nu - 1, x) - jv(nu + 1, x))
        xn = x - fx / dfx if dfx != 0 else 0.5 * (lo + hi)
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-14 * x:
            return xn
        x = xn
    if hi - lo <= 1e-12 * x:
        return 0.5 * (lo + hi)
    raise NonConvergenceError(f"first Bessel zero did not converge at nu={nu}")


def _first_zero_by_scan(nu: float) -> float:
    """Ascending sign scan from nu (J_nu > 0 on (0, j_nu) and j_nu > nu)."""
    from scipy.special import jv
    lo = max(nu, 1e-3)
    # comfortably below both the gap to the second zero (~1.9 nu^(1/3)) and pi
    step = max(0.02, 0.05 * max(1.0, nu) ** (1.0 / 3.0))
    if jv(nu, lo) <= 0:
        raise NonConvergenceError(f"unexpected sign at the scan start, nu={nu}")
    x = lo
    for _ in range(100000):
        x += step
        if jv(nu, x) < 0:
            return _newton_in_bracket(nu, x - step, x)
    raise NonConvergenceError(f"sign scan found no zero at nu={nu}")


def bessel_first_zero(nu: float) -> float:
    """First positive zero j_nu of J_nu, for 0 <= nu <= 400.

    Seeded by the large-order expansion and polished by Newton; a positivity
    scan below the root certifies it is the *first* zero, with an ascending
    sign-scan fallback if not.  J_nu is positive on (0, j_nu).
    """
    from scipy.special import jv
    if nu < 0 or nu > 400:
        raise ValueError("bessel_first_zero requires 0 <= nu <= 400")
    seed = _first_zero_seed(nu)
    # local walk around the seed; the step stays below the first-to-second
    # zero gap (~1.9 nu^(1/3)) so the negative well cannot be stepped over
    step = max(0.05, 0.2 * max(1.0, nu) ** (1.0 / 3.0))

    root = None
    x = seed
    fx = jv(nu, x)
    if fx <= 0:  # seed overshot: back down into the positive run
        for _ in range(400):
            hi = x
            x -= step
            if x <= 0:
                break
            fx = jv(nu, x)
            if fx > 0:
                root = _newton_in_bracket(nu, x, hi)
                break
    else:
        lo = x
        for _ in range(400):
            x += step
            if jv(nu, x) < 0:
                root = _newton_in_bracket(nu, lo, x)
                break
            lo = x
    if root is not None:
        # certify firstness: no sign change below the root
        probes = np.linspace(0.02 * root, 0.98 * root, 48)
        if np.all(jv(nu, probes) > -1e-12):
            return root
    return _first_zero_by_scan(nu)


def incomplete_beta(u: float, alpha: float, beta: float) -> float:
    """B(u; alpha, beta) = integral_0^u t^(a-1) (1-t)^(b-1) dt (unregularized)."""
    from scipy.special import betainc, betaln
    if not 0.0 <= u <= 1.0:
        raise ValueError("incomplete_beta requires u in [0, 1]")
    if alpha <= 0 or beta <= 0:
        raise ValueError("incomplete_beta requires alpha, beta > 0")
    return float(betainc(alpha, beta, u) * math.exp(betaln(alpha, beta)))


# ---------------------------------------------------------------------------
# One-dimensional minimization
# ---------------------------------------------------------------------------


def golden_section_min(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Golden-section search for a minimum of f on [a, b].

    The bracket shrinks until its width is <= tol and yields its midpoint.
    To maximize, minimize the negation.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
