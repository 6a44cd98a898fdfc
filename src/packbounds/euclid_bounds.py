"""Upper bounds on sphere packing density in R^n.

Four methods are implemented:

* ``rogers`` -- the simplex bound, via a contour integral of the scaled
  complementary error function;
* ``levenshtein`` -- j_(n/2)^n / ((n/2)!^2 4^n) with j the first Bessel zero;
* ``kl`` -- the projection bound through spherical codes in S^n, minimized
  over the degree k of the underlying Gegenbauer root (first local minimum);
* ``cz`` -- the sharpened projection bound that stays in S^(n-1), minimized
  the same way over the k-range where the code angle stays >= pi/3.

All values are kept in log space; dimension 600 lands near 1e-100 without
ever touching a denormal.

All four methods run over a list of dimensions in lockstep: ``_rogers_lanes``
integrates one quadrature lane per dimension, ``_levenshtein_lanes`` finds
every Bessel zero in lanes, and ``_scan_k`` runs the k-scans of (n, method)
lanes together, kl and cz mixed, on arrays of lane state.  The state
carries what the next degree reads: the roots t_(k-2), t_(k-1) and t_k, the
squared off-diagonal rows of each lane's Jacobi matrix and ln Gamma(m - 1).
Each degree's largest roots come from one ``_lockstep_roots`` call over all
the lanes, which starts Newton from the carried roots, and its objectives
from one ``_code_objectives`` call, which reads ln Gamma(k + m - 1) from a
table built once per scan.  Each per-dimension function is the one-lane
call of its lockstep helper and gives the same record bit for bit.
:func:`bounds` runs any list of the ``METHODS`` by name, each lockstep
helper once, and :func:`crossover_scan` compares three from one such call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .orthopoly import DEGREE_CAP, GegenbauerContext, _lockstep_roots
from .specfun import (
    IntegrandError,
    LogScaled,
    NonConvergenceError,
    _first_zeros,
    _real_line_lanes,
    golden_section_min,
    log_gamma,
    scaled_erfc_complex,
)

__all__ = [
    "BoundRecord",
    "RateResult",
    "METHODS",
    "rogers_bound",
    "levenshtein_bound",
    "kl_spherical_code_bound",
    "kl_bound",
    "cz_bound",
    "bounds",
    "crossover_scan",
    "best_method",
    "optimize_asymptotic_rate",
]


@dataclass(frozen=True)
class BoundRecord:
    """One computed density bound with its optimizer metadata."""

    dimension: int
    method: str
    value: LogScaled
    k_star: int | None = None
    theta_star: float | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RateResult:
    """Optimal angle and per-dimension exponent of the asymptotic bound."""

    theta_star: float
    rate_log2: float


# ---------------------------------------------------------------------------
# Rogers
# ---------------------------------------------------------------------------


def rogers_bound(n: int) -> BoundRecord:
    """Simplex-cell density bound in R^n.

    The textbook integrand e^((n+1)(n/2 - sqrt(2n) u i - u^2)) erfc(a - ui)^n
    with a = sqrt(n/2) overflows around n = 50.  Writing
    erfc(z) = e^(-z^2) w(iz) with z = a - ui collapses it to

        e^(z^2) * w(iz)^n,

    whose log has bounded real part once the peak value is factored out;
    w(iz) stays in the right half plane (Im(iz) = a > 0), so the principal
    complex log never jumps a branch.
    """
    return _rogers_lanes([n])[0]


# lanes per Rogers quadrature: its (L, P) temporaries grow with L; on the
# table over 4..800 step 4, one 200-lane block in place of two was 1-5 ms
# slower and took 0.6-0.8 MB more
_ROGERS_BLOCK = 100


def _rogers_lanes(dims: list[int]) -> list[BoundRecord]:
    """:func:`rogers_bound` at each n of ``dims``, one quadrature lane per n,
    in blocks of at most ``_ROGERS_BLOCK`` lanes: every evaluation of the
    integrand, the peaks included, is one ``scaled_erfc_complex`` call over
    all the lanes of the block still refining, with n, a, sqrt(2n) and the
    peak as (L, 1) columns."""
    for n in dims:
        if n < 2 or n > 1000:
            raise ValueError("rogers_bound requires 2 <= n <= 1000")
    if len(dims) > _ROGERS_BLOCK:
        return [rec for i in range(0, len(dims), _ROGERS_BLOCK)
                for rec in _rogers_lanes(dims[i:i + _ROGERS_BLOCK])]
    nf = np.array(dims, dtype=float)[:, None]
    a = np.sqrt(nf / 2.0)
    s2n = np.sqrt(2.0 * nf)

    def log_integrand(lanes: np.ndarray, u: np.ndarray) -> np.ndarray:
        # (n/2 - u^2) - i sqrt(2n) u + n log w, partly in place: over all the
        # lanes each (L, P) temporary is large
        log_w = np.log(scaled_erfc_complex(a[lanes] - 1j * u))
        log_w *= nf[lanes]
        out = 1j * s2n[lanes] * u
        np.subtract(nf[lanes] / 2.0 - u * u, out, out=out)
        out += log_w
        return out

    peak = log_integrand(np.arange(len(dims)), np.zeros((len(dims), 1))).real
    bad = np.flatnonzero(~np.isfinite(peak[:, 0]))
    if bad.size:
        raise IntegrandError(f"rogers integrand peak is non-finite at n={dims[bad[0]]}")

    def scaled(lanes: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = log_integrand(lanes, u)
        out -= peak[lanes]
        return np.exp(out, out=out)

    records = []
    for n, pk, res in zip(dims, peak[:, 0].tolist(), _real_line_lanes(scaled, len(dims))):
        total = complex(res.value)
        log_prefactor = (
            log_gamma(n + 2.0)
            - log_gamma(n / 2.0 + 1.0)
            + (n - 1) / 2.0 * math.log(math.pi)
            - 1.5 * n * math.log(2.0)
        )
        records.append(BoundRecord(
            dimension=n,
            method="rogers",
            value=LogScaled.from_log(log_prefactor + pk + math.log(total.real)),
            diagnostics={
                "imag_residual": abs(total.imag) / abs(total.real),
                "quad_error": res.error,
                "quad_nevals": res.nevals,
            },
        ))
    return records


# ---------------------------------------------------------------------------
# Levenshtein
# ---------------------------------------------------------------------------


def levenshtein_bound(n: int) -> BoundRecord:
    """j_(n/2)^n / ((n/2)!^2 4^n), exact in log space."""
    return _levenshtein_lanes([n])[0]


def _levenshtein_lanes(dims: list[int]) -> list[BoundRecord]:
    """:func:`levenshtein_bound` at each n of ``dims``, with the Bessel zeros
    j_(n/2) found in lanes."""
    for n in dims:
        if n < 1 or n > 800:
            raise ValueError("levenshtein_bound requires 1 <= n <= 800")
    records = []
    for n, j in zip(dims, _first_zeros([n / 2.0 for n in dims])):
        logv = n * math.log(j) - 2.0 * log_gamma(n / 2.0 + 1.0) - n * math.log(4.0)
        records.append(BoundRecord(
            dimension=n,
            method="levenshtein",
            value=LogScaled.from_log(logv),
            diagnostics={"bessel_first_zero": j},
        ))
    return records


# ---------------------------------------------------------------------------
# Spherical-code bound and its two packing descendants
# ---------------------------------------------------------------------------


def kl_spherical_code_bound(n: int, theta: float) -> tuple[LogScaled, int]:
    """Upper bound on the size of a spherical code with minimal angle theta.

    Uses the smallest degree k whose largest Gegenbauer root t_(n,k)
    reaches cos(theta):

        A(n, theta) <= 4 C(k+n-2, k) / (1 - t_(n,k+1)).

    Returns the bound and the k used.  k comes from :func:`_code_degree`,
    by Sturm counts alone, so t_(k+1) is the one root found.
    """
    if n < 2:
        raise ValueError("kl_spherical_code_bound requires n >= 2")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    ctx = GegenbauerContext(n)
    k = _code_degree(ctx, theta)
    return LogScaled.from_log(_code_bound_log(n, k, ctx.largest_root(k + 1))), k


def _code_degree(ctx: GegenbauerContext, theta: float) -> int:
    """The least degree k whose largest root t_(ctx.n,k) reaches cos(theta),
    up to ``DEGREE_CAP``: 1 when cos(theta) <= 0, as t_1 = 0, and past it
    one pass over the Sturm pivots, without finding a root."""
    # absolute slack so that boundary angles (cos(pi/2) = 6.1e-17 in floats,
    # cos theta landing exactly on a root) select the intended degree
    c = math.cos(theta) - 1e-12
    if c <= 0.0:
        return 1
    k = ctx.first_degree_reaching(c)
    if k is None:
        raise NonConvergenceError("k-search exhausted the degree cap")
    return k


def _code_bound_log(m: int, k: int, t_next: float) -> float:
    """ln(4 C(k+m-2, k) / (1 - t_(m,k+1))), the code bound on S^(m-1) at
    degree k given its root t_next = t_(m,k+1): :func:`_code_objectives` at
    n = 0, where the t_k term is -0.0 whatever t_k, so 0.0 stands for it."""
    return _code_objectives(0, k, 0.0, t_next, math.lgamma(k + m - 1), math.lgamma(m - 1))


def _libm(f, x):
    # f by the scalar libm call, on each entry of an array: np.log's SIMD
    # kernels differ from math.log in the last bit on some hosts
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.tolist()), float, x.size)
    return f(x)


def _code_objectives(n, k, t_k, t_k1, lgamma_km, lgamma_m):
    """log of ((1 - t_(m,k))/2)^(n/2) * 4 C(k+m-2, k) / (1 - t_(m,k+1)) per
    lane, given ln Gamma(k + m - 1) and ln Gamma(m - 1): the code bound on
    S^(m-1) times the cap shrinkage in R^n.  Each argument is a number or
    an array of lanes that broadcasts with the others; numbers alone give a
    float.  kl takes m = n + 1, cz m = n; at n = 0 the first term is -0.0
    and this is the code bound, bit for bit.  Logs and log-gammas are
    math's, and numpy does + - * in the order of the scalar expression, so
    each lane is the float the numbers give."""
    return (
        n / 2.0 * _libm(math.log, (1.0 - t_k) / 2.0)
        + math.log(4.0)
        + (lgamma_km - math.lgamma(k + 1) - lgamma_m)  # ln C(k + m - 2, k)
        - _libm(math.log, 1.0 - t_k1)
    )


def _lgammas(lo: int, hi: int) -> np.ndarray:
    # math.lgamma at the integers lo..hi - 1
    return np.fromiter(map(math.lgamma, range(lo, hi)), float, hi - lo)


# each k-scan method: the dimension offset of its Gegenbauer family (kl
# scans the roots of dimension m = n + 1, cz those of m = n) and the
# cap on the roots t_(m,k) of the degrees it counts
_SCANS = {"kl": (1, 1.0), "cz": (0, 0.5)}


def _scan_k(lanes: list[tuple[int, str]]) -> list[BoundRecord]:
    """The kl or cz bound of each (n, method) lane: k goes up to the first
    local minimum of the log objective, where the infimum is attained, for
    every lane in lockstep.  cz counts only the degrees whose root
    t_(n,k) <= 1/2 (t_1 = 0).

    The lanes still scanning keep as arrays their alpha = m/2 - 1, n, cap,
    ln Gamma(m - 1), offset into the scan's table of ``math.lgamma`` over
    the integers, t_(k-2), t_(k-1), t_k, the objectives at k - 2 and k - 1
    and the squared off-diagonal rows of their Jacobi matrices, one (K, L)
    array.  Each degree, from k = 1, where every lane holds t_1 = 0, no
    rows and the objective +inf, is one comparison with the caps, one
    :func:`_lockstep_roots` call for root k + 1 of the lanes within them,
    whatever their method, from the carried roots and rows, one
    :func:`_code_objectives` call with ln Gamma(k + m - 1) read from the
    table, and one comparison with the objectives at k - 1.  Only a lane
    that stops becomes a ``BoundRecord``, its ``objective_prev`` the stored
    objective at k - 2, None at k* = 1."""
    for n, method in lanes:
        if n < 1 or n > 800:
            raise ValueError(f"{method}_bound requires 1 <= n <= 800")
        if n == 1 and method == "cz":
            # no Gegenbauer family on S^0; kl, through S^1, covers n = 1
            raise ValueError("cz_bound is undefined for n = 1")
    if not lanes:
        return []
    ms = [n + _SCANS[method][0] for n, method in lanes]
    # math.lgamma at lo, lo + 1, ..., top + K - 1: lane i reads
    # ln Gamma(m_i - 1 + k) at j_i + k, j_i = m_i - 1 - lo, for k <= K, and
    # K doubles when k passes it
    lo, top = min(ms) - 1, max(ms)
    lgammas = _lgammas(lo, top + 2)
    j = np.array(ms) - 1 - lo
    zero = np.zeros(len(lanes))
    live = {  # each lane still scanning, at degree k
        "lane": np.arange(len(lanes)),
        "alpha": np.array(ms) / 2.0 - 1.0,
        "n": np.array([n for n, _ in lanes]),
        "j": j,
        "cap": np.array([_SCANS[method][1] for _, method in lanes]),
        "lgamma_m": lgammas[j],
        "t_prev2": zero,  # t_(k-2), first read at k = 4
        "t_prev": zero,  # t_(k-1)
        "t": zero,  # t_k
        "b2": np.empty((0, len(lanes))),
        "obj_prev": np.full(len(lanes), np.inf),  # the objective at k - 2
        "obj": np.full(len(lanes), np.inf),  # the objective at k - 1
    }
    records: list[BoundRecord | None] = [None] * len(lanes)

    def stop(mask: np.ndarray, k: int, obj_next: np.ndarray | None) -> dict:
        # the record of each masked lane, at k* = k - 1; the others go on,
        # and none is left when the dict is empty
        after = repeat(None) if obj_next is None else obj_next[mask].tolist()
        stopped = live["lane"][mask].tolist()
        for i, t_star, before, value, nxt in zip(
            stopped, *(live[key][mask].tolist() for key in ("t_prev", "obj_prev", "obj")), after
        ):
            records[i] = BoundRecord(
                dimension=lanes[i][0],
                method=lanes[i][1],
                value=LogScaled.from_log(value),
                k_star=k - 1,
                theta_star=math.acos(t_star),
                diagnostics={
                    "objective_prev": before if k > 2 else None,
                    "objective": value,
                    "objective_next": nxt,
                },
            )
        if len(stopped) == live["lane"].size:
            return {}
        keep = ~mask  # lanes are the last axis, of b2 too
        return {key: a[keep] if a.ndim == 1 else a[:, keep] for key, a in live.items()}

    for k in range(1, DEGREE_CAP):  # the objective at k reads root k + 1
        past = live["t"] > live["cap"]  # no objective at k
        if past.any() and not (live := stop(past, k, None)):
            return records
        t_next, live["b2"] = _lockstep_roots(
            live["alpha"], k + 1, (live["t"], live["t_prev"], live["t_prev2"]), live["b2"])
        if lo + lgammas.size < top + k:
            lgammas = np.append(lgammas, _lgammas(lo + lgammas.size, top + 2 * k))
        obj = _code_objectives(live["n"], k, live["t"], t_next,
                               lgammas[live["j"] + k], live["lgamma_m"])
        rose = obj > live["obj"]
        if rose.any():
            if not (live := stop(rose, k, obj)):
                return records
            t_next, obj = t_next[~rose], obj[~rose]
        live.update(t_prev2=live["t_prev"], t_prev=live["t"], t=t_next,
                    obj_prev=live["obj"], obj=obj)
    n, method = lanes[live["lane"][0]]
    raise NonConvergenceError(f"{method}_bound k-search found no local minimum at n={n}")


def kl_bound(n: int) -> BoundRecord:
    """Packing bound via codes on S^n, at the first local minimum in k."""
    return _scan_k([(n, "kl")])[0]


def cz_bound(n: int) -> BoundRecord:
    """Packing bound via codes on S^(n-1), restricted to code angles
    theta >= pi/3 (equivalently t_(n,k) <= 1/2), at the first local
    minimum in k within that range; undefined at n = 1."""
    return _scan_k([(n, "cz")])[0]


# ---------------------------------------------------------------------------
# The method registry and the crossover
# ---------------------------------------------------------------------------

# the lockstep helper of each method that is not a k-scan
_LANES = {"rogers": _rogers_lanes, "levenshtein": _levenshtein_lanes}
METHODS = (*_LANES, *_SCANS)


def bounds(methods: list[str], dims: list[int]) -> dict[str, list[BoundRecord]]:
    """The bound of each of ``methods`` at each n of ``dims``, as
    {method: records} in ``methods`` order: rogers and levenshtein from one
    lockstep call each, and every k-scan method from one :func:`_scan_k`
    over the lanes of them all."""
    methods = list(dict.fromkeys(methods))
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; known: {list(METHODS)}")
    scanned = iter(_scan_k([(n, m) for m in methods if m in _SCANS for n in dims]))
    return {m: _LANES[m](dims) if m in _LANES else [next(scanned) for _ in dims]
            for m in methods}


def crossover_scan(lo: int, hi: int) -> list[tuple[int, str]]:
    """Which of the rogers, levenshtein and kl bounds is smallest at each n
    in [lo, hi], ties broken in that order, from one :func:`bounds` call."""
    if not 4 <= lo <= hi <= 800:
        raise ValueError("crossover scan requires 4 <= lo <= hi <= 800")
    dims = list(range(lo, hi + 1))
    lanes = zip(*bounds(["rogers", "levenshtein", "kl"], dims).values())
    return [(n, min(recs, key=lambda rec: rec.value.log_value).method)
            for n, recs in zip(dims, lanes)]


def best_method(n: int) -> str:
    """Which of the three historical bounds is smallest at dimension n."""
    return crossover_scan(n, n)[0][1]


# ---------------------------------------------------------------------------
# The asymptotic rate
# ---------------------------------------------------------------------------


def _rate_objective(theta: float) -> float:
    # log2 of the per-dimension factor: the cap shrinkage sin(theta/2)
    # combined with the entropy-type exponent of the code-size bound
    s = math.sin(theta)
    hi = (1.0 + s) / (2.0 * s)
    lo = (1.0 - s) / (2.0 * s)
    ent = hi * math.log(hi) - (lo * math.log(lo) if lo > 0.0 else 0.0)
    return math.log2(math.sin(theta / 2.0)) + ent / math.log(2.0)


def optimize_asymptotic_rate() -> RateResult:
    """Minimize the asymptotic per-dimension exponent over theta in (0, pi/2].

    Golden-section search to 1e-9; the minimizer sits near 1.0995 and the
    minimum near -0.5990 bits per dimension.
    """
    theta = golden_section_min(_rate_objective, 1e-6, math.pi / 2.0, 1e-9)
    return RateResult(theta_star=theta, rate_log2=_rate_objective(theta))
