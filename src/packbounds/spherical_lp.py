"""Linear programming bound for spherical codes, with verified certificates.

The optimization lives in the cone of positive-definite functions on
S^(n-1): g = sum_k c_k C_k with c_k >= 0, g <= 0 on [-1, cos theta], and
objective g(1)/c_0.  Working with the normalized basis phi_k = C_k/C_k(1)
keeps every constraint coefficient in [-1, 1] regardless of n and k.

A dense simplex (Dantzig pricing, Bland fallback on degeneracy) solves the
dual of the discretized problem, starting from its slack basis.  The result
is then checked for the sign condition: max g is the larger of g on an
independent finer grid, endpoints included, and g at the polynomial's exact
critical points, which locate every interior maximum.  Any residual bump
above zero is removed by shifting the constant coefficient, which costs a
quantified sliver of objective but makes the certificate sound.

The module also converts a certificate into a Euclidean packing bound and
numerically probes the lens-integral construction that turns g into a
compactly supported positive-definite function f on R^n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .euclid_bounds import shared_context
from .orthopoly import GegenbauerContext
from .specfun import LogScaled, integrate, log_gamma

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


class LPInfeasibleError(RuntimeError):
    """The simplex gave no usable solution of the discretized LP.

    Either the discretized LP has no feasible point at this degree, or the
    dense simplex lost one to round-off; the error does not tell which.  At
    theta = pi/3 it is seen at n = 32, degree 10 (dual unbounded) and at
    n = 48 and 64 for every degree in 10..40 (dual unbounded at degree 10,
    else a violation too large to absorb).  scipy's HiGHS solver finds the
    discretized LP infeasible at (n, degree) = (32, 10), (48, 10) and
    (64, 10), and solves it at n = 48, degree 20."""


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
    cycle and is fully deterministic.

    Each pivot works in views of the tableau and in buffers allocated once
    per call: the ratio test divides only where the pivot column is
    positive, and the rank-1 update forms the same products as
    ``np.outer`` before subtracting them.  Every floating-point operation
    and its order are those of the textbook update, so the result is the
    same bit for bit.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("simplex_minimize requires finite c, A and b")
    if np.any(b < 0):
        raise ValueError("simplex_minimize requires b >= 0 (a feasible slack basis)")
    m, nv = A.shape
    T = np.zeros((m + 1, nv + m + 1))
    T[:m, :nv] = A
    T[:m, nv : nv + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :nv] = c
    basis = np.arange(nv, nv + m)
    red = T[m, :-1]  # reduced costs
    rhs = T[:m, -1]
    neg_z = T[m, -1:]  # the objective cell holds -z
    ratios = np.empty(m)
    pos = np.empty(m, dtype=bool)
    tie = np.empty(m, dtype=bool)
    colvals = np.empty(m + 1)
    upd = np.empty_like(T)

    iterations = 0
    max_iter = 200 * (m + nv + 10)
    status = "iteration_limit"
    bland = False
    stall = 0
    prev_obj = neg_z[0]
    while iterations < max_iter:
        if bland:
            cands = np.nonzero(red < -PIVOT_TOL)[0]
            if cands.size == 0:
                status = "optimal"
                break
            j = int(cands[0])
        else:
            j = int(np.argmin(red))
            if red[j] >= -PIVOT_TOL:
                status = "optimal"
                break
        col = T[:m, j]
        np.greater(col, PIVOT_TOL, out=pos)
        if not pos.any():
            # a barely-negative reduced cost with no usable pivot is
            # roundoff, not a genuine ray
            status = "optimal" if red[j] >= -1e-6 else "unbounded"
            break
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=pos)
        i = int(ratios.argmin())
        rmin = ratios[i]
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
        if neg_z[0] <= prev_obj + 1e-13 * (1 + abs(prev_obj)):
            stall += 1
            if stall > 40:
                bland = True
        else:
            stall = 0
        prev_obj = neg_z[0]

    x = np.zeros(nv)
    for i in range(m):
        if basis[i] < nv:
            x[basis[i]] = T[i, -1]
    return SimplexResult(
        x, float(c @ x), status, iterations, T[m, nv : nv + m].copy()
    )


# ---------------------------------------------------------------------------
# Problem and certificate types
# ---------------------------------------------------------------------------


def chebyshev_grid(theta: float, size: int) -> np.ndarray:
    """Chebyshev-extrema nodes on [-1, cos theta], endpoints included."""
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
    """Discretized code-bound LP: dimension, angle, degree, constraint grid."""

    n: int
    theta: float
    degree: int
    constraint_grid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("LPProblem requires n >= 2")
        if not 0.0 < self.theta <= math.pi:
            raise ValueError("theta must lie in (0, pi]")
        if self.degree < 1 or self.degree > 200:
            raise ValueError("degree must lie in [1, 200]")
        grid = self.constraint_grid
        if grid is None:
            grid = chebyshev_grid(self.theta, min(8 * self.degree, 4000))
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
class LPCertificate:
    """Feasible g in the Gegenbauer basis with its verification summary."""

    n: int
    theta: float
    coefficients: tuple[float, ...]  # c_0 .. c_d
    objective: float  # g(1) / c_0
    max_sign_residual: float
    verification_grid_size: int
    certified: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class VerificationReport:
    max_sign_residual: float
    min_coefficient_ratio: float
    coefficients_ok: bool
    sign_ok: bool
    grid_size: int

    @property
    def ok(self) -> bool:
        return self.coefficients_ok and self.sign_ok


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def _normalized_weights(ctx: GegenbauerContext, coefficients) -> np.ndarray:
    # x_k with g = sum x_k phi_k; x_k = c_k * C_k(1)
    return np.array(
        [c * math.exp(ctx.log_value_at_one(k)) for k, c in enumerate(coefficients)]
    )


def _eval_g(ctx: GegenbauerContext, weights: np.ndarray, t) -> np.ndarray:
    table = ctx.eval_normalized_table(len(weights) - 1, np.atleast_1d(t))
    return weights @ table


def _critical_points(ctx: GegenbauerContext, weights: np.ndarray) -> np.ndarray:
    """All real critical points of g in (-1, 1).

    g is a polynomial of degree d; interpolating it exactly in the Chebyshev
    basis and rooting the derivative enumerates every interior extremum, so
    no bump can hide between grid nodes.
    """
    cheb = np.polynomial.chebyshev
    d = len(weights) - 1
    if d < 2:
        return np.array([])
    coef = cheb.chebinterpolate(lambda t: _eval_g(ctx, weights, t), d)
    roots = cheb.chebroots(cheb.chebder(coef))
    roots = roots[np.abs(roots.imag) < 1e-9].real
    return roots[(roots > -1.0) & (roots < 1.0)]


def _sign_grid(
    ctx: GegenbauerContext, degree: int, theta: float, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The uniform sign-check grid on [-1, cos theta], endpoints included
    (the point -1 alone when that interval is empty), and phi_0..phi_degree
    on it."""
    hi = math.cos(theta)
    ts = np.array([-1.0]) if hi - (-1.0) < 1e-15 else np.linspace(-1.0, hi, grid_size)
    return ts, ctx.eval_normalized_table(degree, ts)


def _max_violation(
    ctx: GegenbauerContext,
    weights: np.ndarray,
    theta: float,
    sign_grid: tuple[np.ndarray, np.ndarray],
) -> tuple[float, float]:
    """Max of g over [-1, cos theta] and where it is attained: the larger of
    g on ``sign_grid`` (from :func:`_sign_grid`) and g at the polynomial's
    exact critical points in (-1, cos theta]."""
    ts, table = sign_grid
    vals = weights @ table
    best_idx = int(np.argmax(vals))
    best_t, best_v = float(ts[best_idx]), float(vals[best_idx])
    hi = math.cos(theta)
    if hi - (-1.0) < 1e-15:
        return best_v, best_t
    crit = _critical_points(ctx, weights)
    crit = crit[crit <= hi]
    if crit.size:
        cv = _eval_g(ctx, weights, crit)
        i = int(np.argmax(cv))
        if cv[i] > best_v:
            best_t, best_v = float(crit[i]), float(cv[i])
    return best_v, best_t


# ---------------------------------------------------------------------------
# Solve / verify
# ---------------------------------------------------------------------------


def lp_solve_spherical(p: LPProblem, *, max_rounds: int = 3) -> LPCertificate:
    """Minimize g(1) over the discretized cone, then certify.

    After the simplex solve the candidate's maximum on [-1, cos theta] is
    taken over a 10x finer grid and the exact critical points of g.  Any
    positive bump v is absorbed by replacing g with (g - v)/(1 - v), which
    restores c_0 = 1, keeps every other coefficient nonnegative, and moves
    the objective by a recorded amount.  If that movement would exceed 1e-8
    relative, the grid is doubled and the LP re-solved, up to
    ``max_rounds`` rounds.
    """
    ctx = shared_context(p.n)
    d = p.degree
    grid = p.constraint_grid
    rounds = 0
    while True:
        rounds += 1
        table = ctx.eval_normalized_table(d, grid)  # (d+1, m)
        # primal: variables x_1..x_d >= 0 with x_0 = 1 fixed, minimizing
        # sum x_k subject to sum_k x_k phi_k(t_j) <= -1 on the grid.  The
        # dual (max sum lambda_j s.t. -Phi^T lambda <= 1, lambda >= 0) has a
        # feasible slack basis, so no phase-1 artificials are ever needed;
        # the primal solution is read off the final slack reduced costs.
        phi = table[1:]  # (d, m): row k holds phi_k on the grid
        res = simplex_minimize(-np.ones(grid.size), -phi, np.ones(d))
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

        fine = max(10 * grid.size, 1000)
        sign_grid = _sign_grid(ctx, d, p.theta, fine)
        v, _ = _max_violation(ctx, weights, p.theta, sign_grid)
        if v <= 1e-8 * raw_objective or rounds >= max_rounds:
            break
        del sign_grid  # free it before the next round builds one twice its size
        grid = chebyshev_grid(p.theta, min(2 * grid.size, 4000))

    shift = 0.0
    if v > 0.0:
        shift = v * (1.0 + 1e-9) + 1e-15 * raw_objective
        if shift >= 1.0:
            raise LPInfeasibleError("violation too large to absorb; grid far too coarse")
        weights = weights / (1.0 - shift)
        weights[0] = 1.0  # (g - shift)/(1 - shift) has constant term exactly 1
    objective = float(weights.sum())

    # re-verify the corrected function on the last round's sign grid and
    # assemble the certificate
    v2, v2_at = _max_violation(ctx, weights, p.theta, sign_grid)
    coeffs = tuple(
        float(w * math.exp(-ctx.log_value_at_one(k))) for k, w in enumerate(weights)
    )
    certified = (v2 <= CERT_RESIDUAL_TOL * objective) and all(
        ck >= -COEFF_TOL * coeffs[0] for ck in coeffs
    )
    return LPCertificate(
        n=p.n,
        theta=p.theta,
        coefficients=coeffs,
        objective=objective,
        max_sign_residual=float(v2),
        verification_grid_size=fine,
        certified=certified,
        diagnostics={
            "raw_objective": raw_objective,
            "correction_shift": shift,
            "rounds": rounds,
            "grid_size": int(grid.size),
            "simplex_iterations": res.iterations,
            "residual_location": v2_at,
        },
    )


def verify_certificate(cert: LPCertificate, p: LPProblem) -> VerificationReport:
    """Re-check a certificate from its stored coefficients alone.

    Coefficient nonnegativity, then the sign constraint: g on an
    independent dense grid of [-1, cos theta] and at its exact critical
    points there.  Report-only: never raises.
    """
    ctx = shared_context(cert.n)
    coeffs = np.asarray(cert.coefficients, dtype=float)
    c0 = coeffs[0]
    min_ratio = float(np.min(coeffs / c0)) if c0 > 0 else -math.inf
    coeff_ok = c0 > 0 and min_ratio >= -COEFF_TOL
    weights = _normalized_weights(ctx, coeffs)
    g1 = float(weights.sum())
    grid_size = max(10 * p.constraint_grid.size, 2000)
    sign_grid = _sign_grid(ctx, len(weights) - 1, cert.theta, grid_size)
    v, _ = _max_violation(ctx, weights, cert.theta, sign_grid)
    sign_ok = v <= CERT_RESIDUAL_TOL * g1
    return VerificationReport(
        max_sign_residual=float(v),
        min_coefficient_ratio=min_ratio,
        coefficients_ok=bool(coeff_ok),
        sign_ok=bool(sign_ok),
        grid_size=grid_size,
    )


def euclid_bound_from_certificate(cert: LPCertificate, p: LPProblem) -> LogScaled:
    """Packing-density bound sin^n(theta/2) * g(1)/c_0, in log space.

    Only valid for theta >= pi/3 (the projection argument needs the
    projection radius at most 2) and only from a certified g.
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


def _lens_f(
    ctx: GegenbauerContext,
    weights: np.ndarray,
    n: int,
    R: float,
    rho: float,
    gauss: tuple[np.ndarray, np.ndarray],
) -> float:
    """f(rho) = integral over B_R(x) ^ B_R(y) of g(cos angle(x z y)) dz,
    |x - y| = rho, reduced to 2-D by symmetry of revolution about the axis.

    Coordinates: u = |z - x| in (0, R], phi = polar angle of z at x toward
    y.  The lens constraint |z - y| <= R caps phi at phi_max(u); the sphere
    of revolution contributes Omega_(n-1) (u sin phi)^(n-2), so

        f = Omega_(n-1) int u^(n-1) int_0^(phi_max) sin^(n-2)(phi)
                g((u - rho cos phi)/v) dphi du,
        v = sqrt(u^2 + rho^2 - 2 u rho cos phi).

    phi_max leaves pi (or 0) with square-root behavior at the segment edge,
    so the cut segment is parametrized by u = lo + (hi-lo) w^2.  ``gauss``
    holds the Gauss-Legendre nodes and weights on [-1, 1] used for both
    variables.
    """
    if rho >= 2.0 * R:
        return 0.0
    omega = 2.0 * math.pi ** ((n - 1) / 2.0) / math.exp(log_gamma((n - 1) / 2.0))
    xg, wg = gauss
    s01 = 0.5 * (xg + 1.0)  # nodes on (0,1)
    w01 = 0.5 * wg
    # phi = phimax * s^2 clusters nodes at phi = 0, where the integrand has a
    # corner along u = rho (the angle flips sign there within an O(phi) sliver)
    s_phi = s01 * s01
    w_phi = 2.0 * s01 * w01

    def phi_integral(u: np.ndarray, phimax: np.ndarray) -> np.ndarray:
        # inner integral over phi for each u (vectorized in both)
        phi = np.outer(s_phi, phimax)
        uu = u[None, :]
        cphi = np.cos(phi)
        v = np.sqrt(np.maximum(uu * uu + rho * rho - 2.0 * uu * rho * cphi, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            arg = np.where(v > 0.0, (uu - rho * cphi) / np.where(v > 0, v, 1.0), 1.0)
        np.clip(arg, -1.0, 1.0, out=arg)
        gvals = _eval_g(ctx, weights, arg.ravel()).reshape(arg.shape)
        integrand = np.sin(phi) ** (n - 2) * gvals
        return phimax * (w_phi @ integrand)

    u_lo = max(0.0, rho - R)
    split = R - rho  # below it the whole direction sphere is inside the lens
    cuts = {u_lo, R}
    if u_lo < split < R:
        cuts.add(split)
    if u_lo < rho < R:  # corner of the integrand at (u, phi) = (rho, 0)
        cuts.add(rho)
    edges = sorted(cuts)

    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if b <= split:  # whole direction sphere inside the lens
            u = a + (b - a) * s01
            du = np.full_like(u, b - a)
            phimax = np.full_like(u, math.pi)
        else:
            # u = a + (b - a) w^2 absorbs the sqrt edge of phi_max at u = a
            u = a + (b - a) * s_phi
            du = 2.0 * (b - a) * s01
            cmin = (u * u + rho * rho - R * R) / (2.0 * u * rho)
            phimax = np.arccos(np.clip(cmin, -1.0, 1.0))
        vals = u ** (n - 1) * phi_integral(u, phimax) * du
        total += float(w01 @ vals)
    return omega * total


def default_sample_radii(R: float) -> tuple[float, ...]:
    eps = 1e-6
    radii = [0.0, 0.5, 1.0, 1.5, 2.0, 2.0 + eps, R, 2.0 * R - eps, 2.0 * R, 3.0 * R]
    return tuple(sorted(set(radii)))


def transfer_g_to_f(cert: LPCertificate, p: LPProblem) -> TransferProbe:
    """Probe the function f built from g by integrating over ball overlaps.

    Returns f on the sample radii, f(0), and int_(R^n) f computed by radial
    quadrature.  The identities f(0) = vol(B_R) g(1) and
    int f = vol(B_R)^2 mean(g) hold for exact arithmetic; the probe is the
    numerical check.  Small n only: the reduction is 2-D but the radial
    integral makes it a triple quadrature.  Every lens integral uses the
    same 64-point Gauss-Legendre rule, built once here.  The radial
    integral runs over [0, R] directly and over [R, 2R] after
    rho = 2R - R s^2, s in [0, 1], which makes the integrand smooth at the
    edge of the support, where f behaves like (2R - rho)^((n+1)/2).
    """
    n = cert.n
    if not 2 <= n <= 8:
        raise ValueError("transfer_g_to_f supports 2 <= n <= 8")
    R = 1.0 / math.sin(cert.theta / 2.0)
    ctx = shared_context(n)
    weights = _normalized_weights(ctx, np.asarray(cert.coefficients))
    radii = default_sample_radii(R)
    gauss = np.polynomial.legendre.leggauss(64)
    fvals = tuple(_lens_f(ctx, weights, n, R, r, gauss) for r in radii)
    f0 = fvals[0]  # the sample radii start at 0

    surface = 2.0 * math.pi ** (n / 2.0) / math.exp(log_gamma(n / 2.0))

    def radial(rho: np.ndarray) -> np.ndarray:
        return np.array(
            [_lens_f(ctx, weights, n, R, float(r), gauss) * r ** (n - 1) for r in rho]
        )

    def outer(s: np.ndarray) -> np.ndarray:
        # rho = 2R - R s^2 absorbs the (2R - rho)^((n+1)/2) edge of f at 2R
        return radial(2.0 * R - R * s * s) * 2.0 * R * s

    abs_tol = abs(f0) * 1e-10
    part1 = integrate(radial, 0.0, R, rel_tol=1e-8, abs_tol=abs_tol)
    part2 = integrate(outer, 0.0, 1.0, rel_tol=1e-8, abs_tol=abs_tol)
    integral_f = surface * (part1.value + part2.value)
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
    doc = json.loads(text)
    coeffs = tuple(float(c) for c in doc["coefficients"])
    if len(coeffs) != doc["degree"] + 1:
        raise ValueError("coefficient count does not match the declared degree")
    return LPCertificate(
        n=int(doc["n"]),
        theta=float(doc["theta"]),
        coefficients=coeffs,
        objective=float(doc["objective"]),
        max_sign_residual=float(doc["residual"]),
        verification_grid_size=0,
        certified=bool(doc["certified"]),
    )
