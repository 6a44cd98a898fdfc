"""Log-scaled arithmetic, quadrature, and special-function primitives.

Everything downstream (density bounds up to dimension 600, hyperbolic
volumes, overlap integrals) funnels through this module, so all magnitudes
are either kept as natural logs (:class:`LogScaled`) or scaled analytically
before a single ``exp`` is taken.

Every adaptive integral in the package runs one quadrature rule, the
16/32-point Gauss-Legendre of :func:`_integrate_lanes`, which integrates
many integrands ("lanes") at once, each on its own panels; :func:`integrate`
is its one-lane call.  The lens integrals of ``spherical_lp._lens_f``, one
call for a whole array of radii, are the exception: they use a fixed
64-point Gauss-Legendre rule in u and in phi.  Callers absorb endpoint
edges by a change of variable before they integrate.  The first Bessel
zero runs in lanes too (:func:`_first_zeros`), so the Rogers and
Levenshtein bounds over a list of dimensions make one call of their
special function per step for all of them.

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
    "log_gamma",
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
# each panel makes one call of the integrand, weights so that one product
# serves both sums
_X16, _W16 = leggauss(16)
_X32, _W32 = leggauss(32)
_X48 = np.concatenate((_X16, _X32))
_W48 = np.concatenate((_W16, _W32))


def _modulus(z: np.ndarray) -> np.ndarray:
    # |z| as Python's abs takes it, by hypot for complex z: numpy's complex
    # absolute may run a vector loop that differs from hypot in the last bit
    return np.hypot(z.real, z.imag) if z.dtype.kind == "c" else np.abs(z)


def _panels(f, lanes: np.ndarray, centres: np.ndarray):
    """Nested 16/32-point Gauss-Legendre estimates and error estimates over
    panels given by (midpoint, half-width) pairs, an (L, k, 2) array with
    row j for lane ``lanes[j]``, from one call of f; each sum is a row
    reduction."""
    mid, half = centres[..., :1], centres[..., 1]
    x = mid + half[..., None] * _X48
    vals = np.asarray(f(lanes, x.reshape(lanes.size, -1))).reshape(x.shape)
    if not np.isfinite(vals).all():
        raise IntegrandError("integrand returned a non-finite value")
    terms = _W48 * vals
    coarse = half * np.add.reduce(terms[..., :16], axis=-1)
    fine = half * np.add.reduce(terms[..., 16:], axis=-1)
    return fine, _modulus(fine - coarse)


def _integrate_lanes(f, a, b, rel_tol: float = 1e-11, abs_tol: float = 0.0) -> list[QuadResult]:
    """Integrate many integrands ("lanes") at once, lane i over [a_i, b_i].

    ``f(lanes, x)`` gets the indices of the lanes still refining and an
    (L, P) array of abscissae, row j for lane ``lanes[j]``, and returns the
    values elementwise.  Each lane keeps its own panel list and runs the
    rule of :func:`integrate` on it: every round, each lane that misses its
    target halves its worst panel (ties go to the leftmost), until
    GL_MAX_SPLITS splits; the new panels of all the lanes are estimated in
    one call of f.  A lane's result does not depend on the other lanes.  The
    first lane that misses its target raises :class:`NonConvergenceError`
    once all have stopped.
    """
    results = [QuadResult(0.0, 0.0, 0, True)] * len(a)
    # each lane's panels, in the order a list of them would keep:
    # edges (lo, hi), estimates and error estimates
    edges: list[list] = [[] for _ in results]
    ests: list[list] = [[] for _ in results]
    errs: list[list] = [[] for _ in results]
    lanes = [i for i in range(len(a)) if a[i] != b[i]]
    fresh = [[(a[i], b[i])] for i in lanes]  # per live lane: the panels to estimate
    nevals = 0
    for split in range(GL_MAX_SPLITS + 1):
        if not lanes:
            break
        centres = [[(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in new] for new in fresh]
        est, err = _panels(f, np.array(lanes), np.array(centres))
        nevals += 48 * len(fresh[0])
        estimated = zip(lanes, fresh, est.tolist(), err.tolist())
        lanes, fresh = [], []
        for i, new, new_est, new_err in estimated:
            span, es, er = edges[i], ests[i], errs[i]
            span += new
            es += new_est
            er += new_err
            total, total_err = sum(es), sum(er)
            converged = total_err <= max(rel_tol * abs(total), abs_tol)
            if converged or split == GL_MAX_SPLITS:
                results[i] = QuadResult(
                    total.real if total.imag == 0 else total, total_err, nevals, converged)
                continue
            # split the worst panel; ties resolve to the leftmost for determinism
            worst = max(range(len(er)), key=lambda j: (er[j], -span[j][0]))
            pa, pb = span.pop(worst)
            del es[worst], er[worst]
            pm = 0.5 * (pa + pb)
            lanes.append(i)
            fresh.append([(pa, pm), (pm, pb)])
    for i, res in enumerate(results):
        if not res.converged:
            raise NonConvergenceError(
                f"quadrature did not reach tolerance on [{a[i]}, {b[i]}] "
                f"(error estimate {res.error:.3e})",
                partial=res,
            )
    return results


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
    bit-identical outputs.  This is the one-lane call of
    :func:`_integrate_lanes`, which every integral in the package runs.
    Raises ValueError unless b - a is finite, and with it a and b.
    """
    if not math.isfinite(b - a):
        raise ValueError(f"integrate requires finite ends and a finite b - a, got [{a}, {b}]")
    return _integrate_lanes(_one_lane(f), [a], [b], rel_tol, abs_tol)[0]


def _one_lane(f: Callable[[np.ndarray], np.ndarray]):
    # a 1-D integrand in the lane form, for a single lane
    return lambda lanes, x: f(x[0])


def _real_line_lanes(f, count: int) -> list[QuadResult]:
    """Integrate each of ``count`` lanes of a lane integrand (see
    :func:`_integrate_lanes`) over (-inf, inf) after truncating the tails.

    Each lane is scaled so that its peak lies near 0 with |f(0)| = 1.  Its
    interval is cut where log|f| falls :data:`TAIL_NATS` nats below that;
    both cuts are located by outward doubling, and each doubling step makes
    one call of f for every lane whose cuts are not both found yet."""
    floor = math.exp(-TAIL_NATS)
    cuts = np.full((count, 2), np.nan)
    todo = np.arange(count)
    u = 1.0
    for _ in range(60):
        small = _modulus(np.asarray(f(todo, np.tile([-u, u], (todo.size, 1))))) < floor
        fresh = small & np.isnan(cuts[todo])
        cuts[todo] = np.where(fresh, [-u, u], cuts[todo])
        todo = todo[np.isnan(cuts[todo]).any(axis=1)]
        if todo.size == 0:
            return _integrate_lanes(f, cuts[:, 0], cuts[:, 1])
        u *= 2.0
    raise NonConvergenceError("could not locate an integrable tail")


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def log_gamma(x: float) -> float:
    """ln Gamma(x) for 0 < x < inf, up to where it overflows (x near 2.5e305)."""
    if not 0 < x < math.inf:
        raise ValueError(f"log_gamma requires 0 < x < inf, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError(f"log_gamma overflows at x = {x}") from None


def _sphere_area(m: int) -> float:
    """The area 2 pi^(m/2) / Gamma(m/2) of the unit sphere S^(m-1) in R^m."""
    return 2.0 * math.pi ** (m / 2.0) / math.exp(log_gamma(m / 2.0))


def scaled_erfc_complex(z):
    """exp(z^2) * erfc(z) = w(iz), w the Faddeeva function, for finite
    complex z, a scalar or an array; inf where it passes the float range, as
    on the real axis below about -26.6.  A non-finite z raises ValueError."""
    from scipy.special import wofz
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("scaled_erfc_complex requires finite z")
    return wofz(1j * z)


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


def _newton_in_brackets(nu: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Polish sign-change brackets J(lo) > 0 > J(hi) by safeguarded Newton,
    one lane per order; each step makes one jv call for J_nu and J_(nu -+ 1)
    of every lane still moving."""
    from scipy.special import jv
    x = 0.5 * (lo + hi)
    root = np.empty(x.size)
    live = np.arange(x.size)
    orders = np.stack((nu, nu - 1, nu + 1))
    for _ in range(100):
        fx, below, above = jv(orders[:, live], x)
        pos = fx > 0
        lo, hi = np.where(pos, x, lo), np.where(pos, hi, x)
        dfx = 0.5 * (below - above)
        xn = np.where(dfx != 0, x - fx / np.where(dfx != 0, dfx, 1.0), 0.5 * (lo + hi))
        xn = np.where((lo < xn) & (xn < hi), xn, 0.5 * (lo + hi))
        done = np.abs(xn - x) <= 1e-14 * x
        root[live[done]] = xn[done]
        keep = ~done
        live, x, lo, hi = live[keep], xn[keep], lo[keep], hi[keep]
        if live.size == 0:
            return root
    if np.all(hi - lo <= 1e-12 * x):
        root[live] = 0.5 * (lo + hi)
        return root
    raise NonConvergenceError(f"first Bessel zero did not converge at nu={nu[live[0]]}")


def bessel_first_zero(nu: float) -> float:
    """First positive zero j_nu of J_nu, for 0 <= nu <= 400.

    Seeded by the large-order expansion, bracketed by one step and polished
    by Newton; a bracket below a lower bound on the second zero (Qu and
    Wong, Trans. AMS 351, 1999) holds the *first* zero and no other, else
    NonConvergenceError.  This is the one-lane call of :func:`_first_zeros`.
    """
    return _first_zeros([nu])[0]


# j_(0,2) and |a_2|, a_2 the second zero of the Airy function Ai, both
# rounded down
_J02 = 5.520078110286311
_AIRY_A2 = 4.08794944413097


def _second_zero_floor(nu: np.ndarray) -> np.ndarray:
    """A lower bound on the second zero j_(nu,2) of J_nu, for nu >= 0:
    j_(nu,k) increases with nu, so j_(nu,2) >= j_(0,2), and Qu and Wong
    (Trans. AMS 351, 1999) give j_(nu,k) > nu - a_k 2^(-1/3) nu^(1/3) for
    nu > 0, which at k = 2 is nu + |a_2| (nu/2)^(1/3)."""
    return np.maximum(_J02, nu + _AIRY_A2 * np.cbrt(nu / 2.0))


def _first_zeros(nus) -> list[float]:
    """:func:`bessel_first_zero` at every order of ``nus``, in lanes: the
    bracket step and each Newton step make one jv call over all the lanes."""
    from scipy.special import jv
    nus = [float(nu) for nu in nus]
    if not all(0 <= nu <= 400 for nu in nus):
        raise ValueError("bessel_first_zero requires 0 <= nu <= 400")
    nu = np.array(nus)
    x = np.array([_first_zero_seed(v) for v in nus])
    # one step, shorter than the gap to j_(nu,2) (~1.9 nu^(1/3)), towards
    # the zero: down where J <= 0 at the seed (it overshot), else up
    step = np.array([max(0.05, 0.2 * max(1.0, v) ** (1.0 / 3.0)) for v in nus])
    up = jv(nu, x) > 0
    y = x + np.where(up, step, -step)
    fy = jv(nu, y)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    # a sign change in (0, j_(nu,2)) brackets j_(nu,1) and no other zero
    ok = np.where(up, fy < 0, fy > 0) & (lo > 0) & (hi < _second_zero_floor(nu))
    if not ok.all():
        raise NonConvergenceError(f"no first-zero bracket at nu={nu[~ok][0]}")
    return _newton_in_brackets(nu, lo, hi).tolist()


def incomplete_beta(u: float, alpha: float, beta: float) -> float:
    """B(u; alpha, beta) = integral_0^u t^(a-1) (1-t)^(b-1) dt (unregularized),
    for u in [0, 1] and finite alpha, beta > 0 where B stays in the float
    range (B(alpha, beta) ~ 1/alpha passes it below alpha = 5.6e-309)."""
    from scipy.special import betainc, betaln
    if not 0.0 <= u <= 1.0:
        raise ValueError("incomplete_beta requires u in [0, 1]")
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("incomplete_beta requires finite alpha, beta > 0")
    try:
        value = float(betainc(alpha, beta, u)) * math.exp(betaln(alpha, beta))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"incomplete_beta passes the float range at alpha, beta = {alpha}, {beta}")
    return value


# ---------------------------------------------------------------------------
# One-dimensional minimization
# ---------------------------------------------------------------------------


def golden_section_min(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Golden-section search for a minimum of f on [a, b].

    The bracket shrinks until its width is <= tol, or until rounding leaves
    no two points inside it, and yields its midpoint.  To maximize, minimize
    the negation.  Raises ValueError unless tol > 0 and b - a is finite."""
    if not tol > 0:
        raise ValueError("golden_section_min requires tol > 0")
    if not math.isfinite(b - a):
        raise ValueError(f"golden_section_min requires a finite bracket, got [{a}, {b}]")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * a + 0.5 * b  # the midpoint, also where a + b overflows
