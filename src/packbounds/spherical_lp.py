"""Linear programming bound for spherical codes, with verified certificates.

The optimization lives in the cone of positive-definite functions on
S^(n-1): g = sum_k c_k C_k with c_k >= 0, g <= 0 on [-1, cos theta], and
objective g(1)/c_0.  Working with the normalized basis phi_k = C_k/C_k(1)
keeps every constraint coefficient in [-1, 1] regardless of n and k.

A dense simplex (Dantzig pricing, Bland fallback on degeneracy) solves the
dual of the discretized problem, starting from its slack basis, by column
generation: it starts on about 2 * degree of the grid points, and every
grid point the solution violates joins the tableau, which resumes from its
basis, until none does.  Any bump of the solution above zero on
[-1, cos theta] is removed by shifting the constant coefficient, which
costs a quantified sliver of objective.

A certificate is its coefficients: :class:`LPCertificate` derives what it
claims from them in one check.  The objective is the exact g(1)/c_0 rounded
up to a float; the sign residual is the maximum of g on [-1, cos theta],
taken at both endpoints and at every root of g' in between.  The LP optimum
leaves g's top coefficients exactly 0, so the sign check, like the solve's
shift and the transfer probe, works at g's actual degree, that of its last
nonzero coefficient, not at the declared one.

The module also converts a certificate into a Euclidean packing bound and
numerically probes the lens-integral construction that turns g into a
compactly supported positive-definite function f on R^n.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .orthopoly import GegenbauerContext
from .specfun import LogScaled, _sphere_area, integrate

__all__ = [
    "LPProblem",
    "LPCertificate",
    "VerificationReport",
    "TransferProbe",
    "LPInfeasibleError",
    "SimplexResult",
    "simplex_minimize",
    "chebyshev_grid",
    "lp_solve_spherical",
    "verify_certificate",
    "euclid_bound_from_certificate",
    "transfer_g_to_f",
    "certificate_to_json",
    "certificate_from_json",
]

PIVOT_TOL = 1e-9  # reduced costs and pivots within this of zero count as zero
COEFF_TOL = 1e-12  # allowed negativity of c_k relative to c_0
CERT_RESIDUAL_TOL = 1e-9  # certified iff max residual <= tol * g(1)
MAX_DEGREE = 200  # of an LP problem or certificate; bounds the check's root solve
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp of a larger float overflows


class LPInfeasibleError(RuntimeError):
    """The simplex gave no usable solution of the discretized LP.

    Either the discretized LP has no feasible point at this degree, or the
    dense simplex lost one to round-off; the error does not tell which.  An
    unbounded dual on part of the grid is unbounded on all of it, so column
    generation fails where one solve on the whole grid would.  At
    theta = pi/3, over n up to 64 and degrees 10..40, it is seen five times:
    "dual unbounded" at degree 10 for n = 32, 48 and 64, where scipy's HiGHS
    solver finds the discretized LP infeasible too, and "too large to
    absorb" at degree 20 for n = 48 and 64, where HiGHS solves it and a
    finer grid fails alike.  A stalled simplex ("iteration_limit", as at
    n = 200, degree 60) runs out of pivots on its first, narrow tableau."""


# ---------------------------------------------------------------------------
# Dense simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    status: str
    iterations: int
    # final reduced costs of the slack columns: an optimal solution of the
    # dual LP
    slack_reduced_costs: np.ndarray = None  # type: ignore[assignment]


def simplex_minimize(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> SimplexResult:
    """Minimize c.x subject to A x <= b, x >= 0 by the dense tableau method.

    c, A and b must be finite and b nonnegative, so the slack basis is
    feasible and the method starts from it without a phase 1.  Pricing is
    Dantzig's rule with lowest-index tie breaking; after a long degenerate
    streak it switches permanently to Bland's rule, so the method cannot
    cycle and is fully deterministic.  Every floating-point operation and
    its order are those of the textbook update (see :class:`_Tableau`), so
    the result is the same bit for bit.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("simplex_minimize requires finite c, A and b")
    if np.any(b < 0):
        raise ValueError("simplex_minimize requires b >= 0 (a feasible slack basis)")
    tab = _Tableau(c, A, b)
    tab.pivot()
    return tab.result()


class _Tableau:
    """The dense simplex tableau of min c.x subject to A x <= b, x >= 0,
    started from its slack basis and able to take more columns later.

    Columns hold the structural variables in the order they arrived, then
    the m slacks, then the right-hand side.  The slack block is B^-1 of the
    current basis and the objective row over it is -c_B B^-1, so a column
    (c_j, a_j) appended after any number of pivots enters as B^-1 a_j with
    reduced cost c_j + (slack reduced costs) . a_j, and pivoting resumes
    from the current basis with Dantzig's rule.  The iteration budget,
    200 (m + columns + 10), counts every pivot since the tableau was built.
    """

    def __init__(self, c: np.ndarray, A: np.ndarray, b: np.ndarray):
        m, nv = A.shape
        T = np.zeros((m + 1, nv + m + 1))
        T[:m, :nv] = A
        T[:m, nv : nv + m] = np.eye(m)
        T[:m, -1] = b
        T[m, :nv] = c
        self.T, self.c, self.m, self.nv = T, c, m, nv
        self.basis = np.arange(nv, nv + m)
        self.status = "iteration_limit"
        self.iterations = 0

    def append(self, c: np.ndarray, A: np.ndarray) -> None:
        """Add the columns of A, with costs c, after the structural ones."""
        m, nv, k, old = self.m, self.nv, c.size, self.T
        T = np.empty((m + 1, nv + k + m + 1))
        T[:, :nv] = old[:, :nv]
        T[:, nv + k :] = old[:, nv:]
        T[:m, nv : nv + k] = old[:m, nv : nv + m] @ A
        T[m, nv : nv + k] = c + old[m, nv : nv + m] @ A
        self.basis[self.basis >= nv] += k
        self.T, self.c, self.nv = T, np.concatenate((self.c, c)), nv + k

    def pivot(self) -> str:
        """Pivot until optimal, unbounded or out of budget; return the status.

        Each pivot works in views of the tableau and in buffers allocated
        once per call: the ratio test divides only where the pivot column
        is positive, so a least ratio of +inf means there is no pivot row,
        and the rank-1 update forms the same products as
        ``np.outer`` before subtracting them."""
        T, m, basis = self.T, self.m, self.basis
        red = T[m, :-1]  # reduced costs
        rhs = T[:m, -1]
        neg_z = T[m, -1:]  # the objective cell holds -z
        ratios = np.empty(m)
        pos = np.empty(m, dtype=bool)
        tie = np.empty(m, dtype=bool)
        colvals = np.empty(m + 1)
        upd = np.empty_like(T)

        iterations = self.iterations
        max_iter = 200 * (m + self.nv + 10)
        status = "iteration_limit"
        bland = False
        stall = 0
        prev_obj = neg_z.item(0)
        red_argmin, ratios_argmin = red.argmin, ratios.argmin
        while iterations < max_iter:
            if bland:
                cands = np.nonzero(red < -PIVOT_TOL)[0]
                if cands.size == 0:
                    status = "optimal"
                    break
                j = int(cands[0])
            else:
                j = int(red_argmin())
                if red.item(j) >= -PIVOT_TOL:
                    status = "optimal"
                    break
            col = T[:m, j]
            np.greater(col, PIVOT_TOL, out=pos)
            ratios.fill(np.inf)
            np.divide(rhs, col, out=ratios, where=pos)
            i = int(ratios_argmin())
            rmin = ratios.item(i)
            if rmin == np.inf:
                # no positive pivot: a barely-negative reduced cost is
                # roundoff, not a genuine ray
                status = "optimal" if red.item(j) >= -1e-6 else "unbounded"
                break
            np.less_equal(ratios, rmin + 1e-12 * (1.0 + abs(rmin)), out=tie)
            if np.count_nonzero(tie) > 1:  # else the minimum is the only tie
                ties = np.flatnonzero(tie)
                if bland:
                    # lowest basis index among the ties (anti-cycling)
                    i = int(ties[np.argmin(basis[ties])])
                else:
                    # largest pivot among the ties (numerical stability)
                    i = int(ties[np.argmax(col[ties])])
            row = T[i]
            row /= row[j]
            np.copyto(colvals, T[:, j])
            colvals[i] = 0.0
            np.multiply(colvals[:, None], row, out=upd)
            T -= upd
            basis[i] = j
            iterations += 1
            # progress means -z increases
            obj = neg_z.item(0)
            if obj <= prev_obj + 1e-13 * (1 + abs(prev_obj)):
                stall += 1
                if stall > 40:
                    bland = True
            else:
                stall = 0
            prev_obj = obj
        self.iterations, self.status = iterations, status
        return status

    def result(self) -> SimplexResult:
        """The current vertex, x in column order, and its status."""
        m, nv = self.m, self.nv
        x = np.zeros(nv)
        structural = self.basis < nv
        x[self.basis[structural]] = self.T[:m, -1][structural]
        return SimplexResult(
            x, float(self.c @ x), self.status, self.iterations, self.T[m, nv : nv + m].copy()
        )


# ---------------------------------------------------------------------------
# Problem and certificate types
# ---------------------------------------------------------------------------


def chebyshev_grid(theta: float, size: int) -> np.ndarray:
    """Chebyshev-extrema nodes on [-1, cos theta], endpoints included."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    hi = math.cos(theta)
    if size < 1:
        raise ValueError("grid size must be >= 1")
    if hi - (-1.0) < 1e-15 or size == 1:
        return np.array([-1.0])
    j = np.arange(size)
    x = np.cos(j * math.pi / (size - 1))  # 1 .. -1
    return (-1.0 + (hi + 1.0) * (x + 1.0) / 2.0)[::-1]


@dataclass(frozen=True)
class LPProblem:
    """Discretized code-bound LP: dimension, angle, degree, constraint grid.

    The default grid is min(32 * degree, 4000) Chebyshev nodes on
    [-1, cos theta].  The solve keeps g <= 0 at every grid point, but the
    simplex holds only the points column generation has needed."""

    n: int
    theta: float
    degree: int
    constraint_grid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("LPProblem requires n >= 2")
        if not 0.0 < self.theta <= math.pi:
            raise ValueError("theta must lie in (0, pi]")
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree must lie in [1, {MAX_DEGREE}]")
        grid = self.constraint_grid
        if grid is None:
            grid = chebyshev_grid(self.theta, min(32 * self.degree, 4000))
        grid = np.sort(np.asarray(grid, dtype=float))
        if grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ValueError("constraint grid must be a nonempty array of finite points")
        if grid.size > 4000:
            raise ValueError("constraint grid is capped at 4000 points")
        hi = math.cos(self.theta)
        if grid[0] < -1.0 - 1e-12 or grid[-1] > hi + 1e-12:
            raise ValueError("grid points must lie in [-1, cos theta]")
        if abs(grid[0] - (-1.0)) > 1e-9 or abs(grid[-1] - hi) > 1e-9:
            raise ValueError("grid must include both endpoints")
        object.__setattr__(self, "constraint_grid", grid)


@dataclass(frozen=True)
class VerificationReport:
    """What a certificate's coefficients show: the maximum of g on
    [-1, cos theta] and where it lies, and the smallest c_k / c_0."""

    max_sign_residual: float
    residual_location: float
    min_coefficient_ratio: float
    coefficients_ok: bool
    sign_ok: bool

    @property
    def ok(self) -> bool:
        return self.coefficients_ok and self.sign_ok


@dataclass(frozen=True)
class LPCertificate:
    """g = sum_k c_k C_k on S^(n-1), stated by its coefficients alone.

    On construction one check derives the rest: ``objective``, the exact
    g(1)/c_0 rounded up to a float, and ``report``, from which
    ``max_sign_residual`` and the verdict ``certified`` are read.  Non-finite
    coefficients, c_0 <= 0, a degree above MAX_DEGREE, n < 2 or theta outside
    (0, pi] raise ValueError."""

    n: int
    theta: float
    coefficients: tuple[float, ...]  # c_0 .. c_d
    diagnostics: dict = field(default_factory=dict)
    objective: float = field(init=False)  # g(1) / c_0, rounded up
    report: VerificationReport = field(init=False)

    def __post_init__(self):
        objective, report = _check_certificate(self.n, self.theta, self.coefficients)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "report", report)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def max_sign_residual(self) -> float:
        return self.report.max_sign_residual

    @property
    def certified(self) -> bool:
        return self.report.ok


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def _normalized_weights(ctx: GegenbauerContext, values, power: int = 1) -> np.ndarray:
    """values[k] * C_k(1)^power for power 1 or -1: from g's coefficients c_k
    to its weights x_k in the basis phi_k = C_k / C_k(1), and back.

    An exact zero stays as it is and takes no C_k(1), however large that is.
    Where C_k(1)^power alone passes the float range, the product is formed
    from logs, and it reads +-inf where it passes the range too."""
    out = np.asarray(values, dtype=float).tolist()
    for k, v in enumerate(out):
        if v:
            log_scale = power * ctx.log_value_at_one(k)
            try:
                out[k] = v * math.exp(log_scale)
            except OverflowError:
                log_v = math.log(abs(v)) + log_scale
                out[k] = math.copysign(math.exp(log_v) if log_v <= _LOG_FLOAT_MAX else math.inf, v)
    return np.array(out)


def _at_actual_degree(weights: np.ndarray) -> np.ndarray:
    """g's weights up to its actual degree, that of the last nonzero one.

    The LP optimum leaves g's top coefficients exactly 0, and interpolated
    at the declared degree they come back as noise of 1e-14 to 1e-10 whose
    spurious roots are so many more points to evaluate; so every routine
    whose work grows with g's degree takes g from here.  w_0 > 0 is kept."""
    return np.trim_zeros(weights, "b")


def _eval_g(ctx: GegenbauerContext, weights: np.ndarray, t) -> np.ndarray:
    """g(t) = sum_k weights[k] phi_k(t), elementwise over t.

    The rows phi_k of the normalized table are scaled by their weights and
    summed in index order.  Unlike a BLAS matrix-vector product, this gives
    a point the same value however many points share the call.  The callers
    pass at most about 2d + 2 points, so the (d+1) x len(t) table is small."""
    table = ctx.eval_normalized_table(len(weights) - 1, t)
    table *= weights[:, None]
    total = table[0]
    for row in table[1:]:
        total += row
    return total


def _chebyshev_coefficients(ctx: GegenbauerContext, weights: np.ndarray) -> np.ndarray:
    """g's d + 1 coefficients a_k in the Chebyshev basis, g = sum_k a_k T_k,
    d = len(weights) - 1, g's actual degree (:func:`_at_actual_degree`).

    g is a polynomial of degree d, so numpy's interpolation at the d + 1
    Chebyshev points of the first kind, where :func:`_eval_g` evaluates it,
    is exact up to rounding.  That rounding grows like d^2: summed again,
    the coefficients give g within about 0.1 (d + 1)^2 ulps of sum |w_k|
    (measured at d = 40 and 200).  Exact-zero top weights would raise d, and
    with it the error, for nothing.  The LP check roots their derivative;
    the transfer probe sums them by :func:`_chebyshev_sum`."""
    d = len(weights) - 1
    return np.polynomial.chebyshev.chebinterpolate(lambda t: _eval_g(ctx, weights, t), d)


def _chebyshev_sum(coef: np.ndarray, x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(x), elementwise, by Clenshaw's recurrence.

    From b_(d+1) = b_(d+2) = 0, b_k = coef[k] + 2x b_(k+1) - b_(k+2) down to
    k = 1 costs three array passes per degree, and the sum is
    coef[0] + x b_1 - b_2.  It runs in the four rows of ``work``, each the
    size of x, and returns one of them."""
    x2, b0, b1, b2 = work
    np.add(x, x, out=x2)
    b1.fill(0.0)
    b2.fill(0.0)
    for c in coef[:0:-1]:
        np.multiply(x2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    np.multiply(x, b1, out=b0)
    b0 -= b2
    b0 += coef[0]
    return b0


def _critical_points(ctx: GegenbauerContext, weights: np.ndarray) -> np.ndarray:
    """The real parts of all roots of g', none when g has degree < 2.

    g is a polynomial of degree d = len(weights) - 1, its actual degree;
    interpolating it exactly in the Chebyshev basis and rooting the
    derivative, a (d - 1) x (d - 1) companion matrix, enumerates every
    extremum.  A real root that the eigenvalue solver returns with a small
    imaginary part keeps its real part, and the real part of a genuinely
    complex root is just one more point to test, so no tolerance decides
    which roots count.
    """
    cheb = np.polynomial.chebyshev
    if len(weights) < 3:
        return np.array([])
    return cheb.chebroots(cheb.chebder(_chebyshev_coefficients(ctx, weights))).real


def _max_violation(
    ctx: GegenbauerContext, weights: np.ndarray, theta: float
) -> tuple[float, float]:
    """Max of g over [-1, cos theta] and where it is attained.

    A polynomial attains its maximum on an interval at an endpoint or at a
    critical point, so one evaluation of g at -1, at cos theta and at the
    critical points in (-1, cos theta] finds it; when that interval is empty
    (theta = pi) the point -1 alone is checked.  Both the roots and the
    evaluation run at g's actual degree, so exact-zero top weights change
    neither the maximum nor where it lies."""
    weights = _at_actual_degree(weights)
    hi = math.cos(theta)
    ts = np.array([-1.0])
    if hi - (-1.0) >= 1e-15:
        crit = _critical_points(ctx, weights)
        ts = np.concatenate((ts, [hi], crit[(crit > -1.0) & (crit <= hi)]))
    vals = _eval_g(ctx, weights, ts)
    i = int(np.argmax(vals))
    return float(vals[i]), float(ts[i])


# ---------------------------------------------------------------------------
# Check / solve / verify
# ---------------------------------------------------------------------------


def _check_certificate(n: int, theta: float, coefficients) -> tuple[float, VerificationReport]:
    """g(1)/c_0 rounded up, and the report of g = sum c_k C_k: certified when
    every c_k >= -COEFF_TOL c_0 and max g on [-1, cos theta] <= CERT_RESIDUAL_TOL g(1).

    Each c_k is a dyadic rational m_k / d_k and C_k(1) is the integer
    C(k + n - 3, k) (1 at n = 2), so g(1) is an exact integer sum over the
    largest d_k, which every other one divides.  Raises ValueError where
    g(1), g(1)/c_0 or sum |c_k| C_k(1) exceeds the float range."""
    if len(coefficients) > MAX_DEGREE + 1:
        raise ValueError(f"a certificate's degree is capped at {MAX_DEGREE}")
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.size == 0 or not np.isfinite(coeffs).all() or coeffs[0] <= 0.0:
        raise ValueError("a certificate needs finite coefficients c_0 .. c_d with c_0 > 0")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    ctx = GegenbauerContext(n)
    parts = [c.as_integer_ratio() for c in coeffs.tolist()]
    den = max(d for _, d in parts)
    g1 = sum(m * (den // d) * (math.comb(k + n - 3, k) if n > 2 else 1)
             for k, (m, d) in enumerate(parts) if m)  # g(1) = g1 / den
    num, div = g1 * parts[0][1], den * parts[0][0]  # g(1)/c_0 = num / div
    try:
        objective = num / div  # the nearest float; one step up if that lies below
        g1_float = g1 / den
    except OverflowError:
        raise ValueError("g(1) or g(1)/c_0 exceeds the float range") from None
    with np.errstate(over="ignore"):
        weights = _normalized_weights(ctx, coeffs)
        # |g| <= sum |c_k| C_k(1) on [-1, 1]: within range, g evaluates without overflow
        bounded = np.isfinite(np.abs(weights).sum())
    if not bounded:
        raise ValueError("sum |c_k| C_k(1) exceeds the float range")
    a, b = objective.as_integer_ratio()
    objective = math.nextafter(objective, math.inf) if a * div < num * b else objective
    v, v_at = _max_violation(ctx, weights, theta)
    with np.errstate(over="ignore"):  # a ratio past the float range reads -inf or inf
        min_ratio = float(np.min(coeffs / coeffs[0]))
    sign_ok = v <= CERT_RESIDUAL_TOL * g1_float
    return objective, VerificationReport(v, v_at, min_ratio, min_ratio >= -COEFF_TOL, sign_ok)


def lp_solve_spherical(p: LPProblem) -> LPCertificate:
    """Minimize g(1) over the discretized cone and shift g below zero.

    The LP on the problem's grid (32 * degree points unless given) is
    solved by column generation: the dense simplex starts on every
    (size // (2 * degree))-th grid point, both ends kept, and after each
    optimal round every grid point is priced at once; those where the
    solution's g exceeds PIVOT_TOL join the tableau, which resumes from its
    basis.  The loop ends on the one-shot simplex's optimality test taken
    over the whole grid, so it reaches the same optimum.  The solution's
    maximum v on [-1, cos theta] is then taken exactly, at the endpoints and
    the critical points of g, and a positive v is absorbed by replacing g
    with (g - v)/(1 - v), which restores c_0 = 1 and keeps every other
    coefficient nonnegative.  The returned certificate checks its own
    coefficients.
    """
    ctx = GegenbauerContext(p.n)
    d = p.degree
    grid = p.constraint_grid
    table = ctx.eval_normalized_table(d, grid)  # (d+1, m)
    # primal: variables x_1..x_d >= 0 with x_0 = 1 fixed, minimizing
    # sum x_k subject to sum_k x_k phi_k(t_j) <= -1 on the grid.  The
    # dual (max sum lambda_j s.t. -Phi^T lambda <= 1, lambda >= 0) has a
    # feasible slack basis, so no phase-1 artificials are ever needed;
    # the primal solution is read off the final slack reduced costs.
    phi = table[1:]  # (d, m): row k holds phi_k on the grid
    in_lp = np.zeros(grid.size, dtype=bool)
    in_lp[:: max(grid.size // (2 * d), 1)] = True
    in_lp[-1] = True
    cols = np.flatnonzero(in_lp)
    tab = _Tableau(-np.ones(cols.size), -phi[:, cols], np.ones(d))
    rounds = 0
    while True:
        rounds += 1
        # a restricted dual that is unbounded stays so with more columns
        if tab.pivot() != "optimal":
            break
        # grid point j has reduced cost -1 - sum_k x_k phi_k(t_j) = -g(t_j)
        reduced = -1.0 - tab.result().slack_reduced_costs @ phi
        cols = np.flatnonzero((reduced < -PIVOT_TOL) & ~in_lp)
        if cols.size == 0:
            break
        in_lp[cols] = True
        tab.append(-np.ones(cols.size), -phi[:, cols])
    res = tab.result()
    if res.status == "unbounded":
        raise LPInfeasibleError(
            f"dual unbounded at n={p.n}, degree={d}: the discretized LP is "
            "infeasible, or round-off misled the dense simplex"
        )
    if res.status != "optimal":
        raise LPInfeasibleError(f"simplex returned {res.status}")
    x = np.maximum(res.slack_reduced_costs, 0.0)
    weights = np.concatenate(([1.0], x))
    raw_objective = float(weights.sum())

    v, _ = _max_violation(ctx, weights, p.theta)
    shift = 0.0
    if v > 0.0:
        shift = v * (1.0 + 1e-9) + 1e-15 * raw_objective
        if shift >= 1.0:
            raise LPInfeasibleError(
                f"g rises to {v:.6g} on [-1, cos theta] at n={p.n}, degree={d}, too much "
                "to absorb into c_0 = 1: the constraint grid misses where g rises, or "
                "round-off misled the dense simplex")
        weights = weights / (1.0 - shift)
        weights[0] = 1.0  # (g - shift)/(1 - shift) has constant term exactly 1
    coeffs = tuple(_normalized_weights(ctx, weights, -1).tolist())
    diagnostics = {"raw_objective": raw_objective, "correction_shift": shift,
                   "rounds": rounds, "columns": int(in_lp.sum()),
                   "grid_size": int(grid.size), "simplex_iterations": res.iterations}
    return LPCertificate(p.n, p.theta, coeffs, diagnostics)


def verify_certificate(cert: LPCertificate, p: LPProblem) -> VerificationReport:
    """The report ``cert`` derived from its coefficients when it was built;
    ``p`` is not read.  Never raises."""
    return cert.report


def euclid_bound_from_certificate(cert: LPCertificate) -> LogScaled:
    """Packing-density bound sin^n(theta/2) * g(1)/c_0, in log space.

    Only valid for theta >= pi/3 (the projection argument needs the
    projection radius at most 2) and only from a certified g; both
    ``certified`` and ``objective`` come from the coefficients alone.
    """
    if cert.theta < math.pi / 3.0 - 1e-12:
        raise ValueError("the Euclidean conversion requires theta >= pi/3")
    if not cert.certified:
        raise ValueError("refusing to convert an uncertified certificate")
    return LogScaled.from_log(
        cert.n * math.log(math.sin(cert.theta / 2.0)) + math.log(cert.objective)
    )


# ---------------------------------------------------------------------------
# Transfer construction: spherical g -> Euclidean f
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferProbe:
    """Samples of the lens-integral function f built from a certificate."""

    n: int
    theta: float
    R: float
    sample_radii: tuple[float, ...]
    f_values: tuple[float, ...]
    f_at_zero: float
    integral_f: float


# points of the lens integrand evaluated at once: four 64 x 64 segments, which
# ran faster than two or eight (fewer numpy calls, temporaries still in cache)
_LENS_BLOCK = 1 << 14
# the Gauss-Legendre nodes and weights on [-1, 1] of every lens integral
_LENS_RULE = np.polynomial.legendre.leggauss(64)


def _lens_f(coef: np.ndarray, n: int, R: float, radii) -> np.ndarray:
    """f(rho) = integral over B_R(x) ^ B_R(y) of g(cos angle(x z y)) dz,
    |x - y| = rho, for each rho in ``radii``, reduced to 2-D by symmetry of
    revolution about the axis.  ``coef`` holds g's Chebyshev coefficients
    (:func:`_chebyshev_coefficients`).

    Coordinates: u = |z - x| in (0, R], phi = polar angle of z at x toward
    y.  The lens constraint |z - y| <= R caps phi at phi_max(u); the sphere
    of revolution contributes Omega_(n-1) (u sin phi)^(n-2), so

        f = Omega_(n-1) int u^(n-1) int_0^(phi_max) sin^(n-2)(phi)
                g((u - rho cos phi)/v) dphi du,
        v = sqrt(u^2 + rho^2 - 2 u rho cos phi).

    phi_max leaves pi (or 0) with square-root behavior at the segment edge,
    so the cut segment is parametrized by u = lo + (hi-lo) w^2.  Both
    variables take the 64-point Gauss-Legendre rule ``_LENS_RULE``.

    Each (radius, u-segment) pair of the call is one product grid of
    (u, phi) nodes, and the integrand runs over _LENS_BLOCK points of these
    grids at a time, g summed by Clenshaw's recurrence (:func:`_chebyshev_sum`)
    in four rows allocated once per call.  A segment is still reduced on its
    own, by one matrix-vector product over phi and one dot product over u,
    and added to its radius's total in the order of its u-segments, so a
    radius's value does not depend on which radii share the call.  Where the
    whole direction sphere lies in the lens, phi_max = pi, and cos phi and
    sin^(n-2) phi are taken once on the phi nodes; in a cut segment
    sin^(n-2) phi is ((1 - cos phi)(1 + cos phi))^((n-2)/2), from the cosine
    the integrand needs anyway.
    """
    xg, wg = _LENS_RULE
    s01 = 0.5 * (xg + 1.0)  # nodes on (0,1)
    w01 = 0.5 * wg
    # phi = phimax * s^2 clusters nodes at phi = 0, where the integrand has a
    # corner along u = rho (the angle flips sign there within an O(phi) sliver)
    s_phi = s01 * s01
    w_phi = 2.0 * s01 * w01

    radii = np.asarray(radii, dtype=float).tolist()
    segments = []  # (radius index, rho, a, b, whole direction sphere inside)
    for i, rho in enumerate(radii):
        if rho >= 2.0 * R:
            continue
        u_lo = max(0.0, rho - R)
        split = R - rho  # below it the whole direction sphere is inside the lens
        cuts = {u_lo, R}
        if u_lo < split < R:
            cuts.add(split)
        if u_lo < rho < R:  # corner of the integrand at (u, phi) = (rho, 0)
            cuts.add(rho)
        edges = sorted(cuts)
        segments += [(i, rho, a, b, b <= split) for a, b in zip(edges, edges[1:])]

    values = [0.0] * len(segments)
    per_block = max(1, _LENS_BLOCK // (s_phi.size * s01.size))
    work = np.empty((4, per_block * s_phi.size * s01.size))  # Clenshaw's rows
    for whole in (True, False):
        group = [k for k, seg in enumerate(segments) if seg[4] == whole]
        if not group:
            continue
        _, rho, a, b, _ = (np.array(col)[:, None] for col in zip(*(segments[k] for k in group)))
        if whole:
            u = a + (b - a) * s01
            du = np.broadcast_to(b - a, u.shape)
            phimax = math.pi
            phi = s_phi * math.pi
            cphi = np.cos(phi)[:, None]
            sin_pow = (np.sin(phi) ** (n - 2))[:, None]
        else:
            # u = a + (b - a) w^2 absorbs the sqrt edge of phi_max at u = a
            u = a + (b - a) * s_phi
            du = 2.0 * (b - a) * s01
            cmin = (u * u + rho * rho - R * R) / (2.0 * u * rho)
            phimax = np.arccos(np.clip(cmin, -1.0, 1.0))
        inner = np.empty_like(u)  # the phi integral before its phi_max factor
        for lo in range(0, len(group), per_block):
            uu = u[lo : lo + per_block, None, :]
            rr = rho[lo : lo + per_block, :, None]
            if not whole:
                cphi = np.cos(s_phi[:, None] * phimax[lo : lo + per_block, None, :])
                sin_pow = ((1.0 - cphi) * (1.0 + cphi)) ** ((n - 2) / 2.0)
            # v = |z - y|, then arg = (u - rho cos phi) / v in its place (1 where v = 0)
            arg = uu * uu + rr * rr - 2.0 * uu * rr * cphi
            np.sqrt(np.maximum(arg, 0.0, out=arg), out=arg)
            apart = arg > 0.0
            np.divide(uu - rr * cphi, np.where(apart, arg, 1.0), out=arg)
            arg[~apart] = 1.0
            np.clip(arg, -1.0, 1.0, out=arg)
            integrand = _chebyshev_sum(coef, arg.ravel(), work[:, : arg.size]).reshape(arg.shape)
            integrand *= sin_pow
            for k, grid in enumerate(integrand, lo):
                inner[k] = w_phi @ grid
        rows = u ** (n - 1) * (phimax * inner) * du
        for k, row in zip(group, rows):
            values[k] = float(w01 @ row)

    totals = [0.0] * len(radii)
    for (i, *_), value in zip(segments, values):
        totals[i] += value
    return _sphere_area(n - 1) * np.array(totals)


def transfer_g_to_f(cert: LPCertificate, p: LPProblem) -> TransferProbe:
    """Probe the function f built from g by integrating over ball overlaps;
    ``p`` is not read.

    Returns f on the sample radii, f(0), and int_(R^n) f computed by radial
    quadrature.  The identities f(0) = vol(B_R) g(1) and
    int f = vol(B_R)^2 mean(g) hold for exact arithmetic; the probe is the
    numerical check.  Small n only: the reduction is 2-D but the radial
    integral makes it a triple quadrature.  Every lens integral uses the
    64-point Gauss-Legendre rule ``_LENS_RULE`` and g's Chebyshev
    coefficients at its actual degree, computed once here as the LP check
    computes them.  The sample radii are one call of the lens evaluator
    :func:`_lens_f`, and so is each evaluation of a radial integrand over
    its quadrature nodes; a radius's value does not depend on the call it
    shares.  The radial integral runs over [0, R] directly and over [R, 2R]
    after rho = 2R - R s^2, s in [0, 1], which makes the integrand smooth at
    the edge of the support, where f behaves like (2R - rho)^((n+1)/2).
    """
    n = cert.n
    if not 2 <= n <= 8:
        raise ValueError("transfer_g_to_f supports 2 <= n <= 8")
    R = 1.0 / math.sin(cert.theta / 2.0)
    ctx = GegenbauerContext(n)
    weights = _normalized_weights(ctx, cert.coefficients)
    coef = _chebyshev_coefficients(ctx, _at_actual_degree(weights))
    eps = 1e-6
    radii = tuple(sorted({0.0, 0.5, 1.0, 1.5, 2.0, 2.0 + eps, R, 2.0 * R - eps, 2.0 * R, 3.0 * R}))
    fvals = tuple(_lens_f(coef, n, R, radii).tolist())
    f0 = fvals[0]  # the sample radii start at 0

    def radial(rho: np.ndarray) -> np.ndarray:
        f = _lens_f(coef, n, R, rho).tolist()
        # a scalar power per radius: numpy's array power may round otherwise
        return np.array([v * r ** (n - 1) for v, r in zip(f, rho)])

    def outer(s: np.ndarray) -> np.ndarray:
        # rho = 2R - R s^2 absorbs the (2R - rho)^((n+1)/2) edge of f at 2R
        return radial(2.0 * R - R * s * s) * 2.0 * R * s

    abs_tol = abs(f0) * 1e-10
    part1 = integrate(radial, 0.0, R, rel_tol=1e-8, abs_tol=abs_tol)
    part2 = integrate(outer, 0.0, 1.0, rel_tol=1e-8, abs_tol=abs_tol)
    integral_f = _sphere_area(n) * (part1.value + part2.value)
    return TransferProbe(
        n=n,
        theta=cert.theta,
        R=R,
        sample_radii=radii,
        f_values=fvals,
        f_at_zero=f0,
        integral_f=float(integral_f),
    )


# ---------------------------------------------------------------------------
# Serialization (stable external schema)
# ---------------------------------------------------------------------------


def certificate_to_json(cert: LPCertificate) -> str:
    doc = {
        "n": cert.n,
        "theta": cert.theta,
        "degree": cert.degree,
        "coefficients": list(cert.coefficients),
        "objective": cert.objective,
        "residual": cert.max_sign_residual,
        "certified": cert.certified,
    }
    return json.dumps(doc)


def certificate_from_json(text: str) -> LPCertificate:
    """The certificate of a ``certificate_to_json`` document, its claims
    derived again; a malformed document raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not {"n", "theta", "degree", "coefficients"} <= doc.keys():
        raise ValueError("a certificate document needs n, theta, degree and coefficients")
    n, theta, degree, coeffs = doc["n"], doc["theta"], doc["degree"], doc["coefficients"]
    if type(n) is not int or type(degree) is not int:  # no float, no bool
        raise ValueError(f"n and degree must be integers, got {n!r} and {degree!r}")
    if not isinstance(coeffs, list) or any(type(x) not in (int, float) for x in [theta, *coeffs]):
        raise ValueError("theta and the coefficients must be numbers")
    if len(coeffs) != degree + 1:
        raise ValueError("coefficient count does not match the declared degree")
    try:
        theta, coeffs = float(theta), tuple(float(c) for c in coeffs)
    except OverflowError:  # an integer literal past the float range
        raise ValueError("theta or a coefficient exceeds the float range") from None
    return LPCertificate(n, theta, coeffs)
