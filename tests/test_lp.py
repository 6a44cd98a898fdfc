import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from packbounds.euclid_bounds import cz_bound, kl_spherical_code_bound
from packbounds.orthopoly import GegenbauerContext
from packbounds import spherical_lp
from packbounds.spherical_lp import (
    MAX_DEGREE,
    LPCertificate,
    LPProblem,
    certificate_from_json,
    certificate_to_json,
    chebyshev_grid,
    euclid_bound_from_certificate,
    PIVOT_TOL,
    lp_solve_spherical,
    simplex_minimize,
    verify_certificate,
    _eval_g,
    _normalized_weights,
    _Tableau,
)


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------


def test_simplex_basic():
    # min -x - y st x + 2y <= 4, 3x + y <= 6 -> vertex (8/5, 6/5)
    res = simplex_minimize(
        np.array([-1.0, -1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0])
    )
    assert res.status == "optimal"
    assert np.allclose(res.x, [8 / 5, 6 / 5])
    assert math.isclose(res.objective, -14 / 5, rel_tol=1e-12)


def test_simplex_negative_rhs_phase1():
    # min x1 + x2 st x1 >= 1 (written as -x1 <= -1): the method starts from
    # the slack basis, which a negative right-hand side makes infeasible, and
    # there is no phase 1 to find another, so the problem is rejected
    with pytest.raises(ValueError):
        simplex_minimize(np.array([1.0, 1.0]), np.array([[-1.0, 0.0]]), np.array([-1.0]))


def test_simplex_infeasible():
    # x <= -1 with x >= 0 is empty; without a phase 1 there is no
    # "infeasible" status, and the negative right-hand side is rejected
    with pytest.raises(ValueError):
        simplex_minimize(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


def test_simplex_unbounded():
    # min -x with x only bounded above by nothing
    res = simplex_minimize(np.array([-1.0]), np.array([[-1.0]]), np.array([1.0]))
    assert res.status == "unbounded"


def test_simplex_degenerate_determinism():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, size=(40, 12))
    b = np.abs(rng.uniform(0, 1, size=40))
    c = rng.uniform(-1, 1, size=12)
    r1 = simplex_minimize(c, A, b)
    r2 = simplex_minimize(c, A, b)
    assert r1.status == r2.status and np.array_equal(r1.x, r2.x)


@pytest.mark.parametrize("where", ["c", "A", "b"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simplex_rejects_non_finite_input(where, bad):
    # unchecked, NaN in c ran to the iteration limit, b = inf gave an
    # "optimal" NaN vertex, b = NaN failed inside numpy and NaN in A read as
    # unbounded
    args = {"c": np.array([-1.0, -1.0]), "A": np.array([[1.0, 2.0], [3.0, 1.0]]),
            "b": np.array([4.0, 6.0])}
    args[where] = args[where].copy()
    args[where].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        simplex_minimize(args["c"], args["A"], args["b"])


def _textbook_simplex(c, A, b):
    # the dense tableau method with a fresh array for every step: the
    # reference simplex_minimize must match bit for bit
    from packbounds.spherical_lp import PIVOT_TOL, SimplexResult

    m, nv = A.shape
    T = np.zeros((m + 1, nv + m + 1))
    T[:m, :nv] = A
    T[:m, nv : nv + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :nv] = c
    basis = np.arange(nv, nv + m)
    iterations, max_iter = 0, 200 * (m + nv + 10)
    status, bland, stall, prev_obj = "iteration_limit", False, 0, T[m, -1]
    while iterations < max_iter:
        red = T[m, :-1]
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
        pos = col > PIVOT_TOL
        if not np.any(pos):
            status = "optimal" if red[j] >= -1e-6 else "unbounded"
            break
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        if bland:
            i = int(ties[np.argmin(basis[ties])])
        else:
            i = int(ties[np.argmax(col[ties])])
        T[i, :] /= T[i, j]
        colvals = T[:, j].copy()
        colvals[i] = 0.0
        T[...] -= np.outer(colvals, T[i, :])
        basis[i] = j
        iterations += 1
        if T[m, -1] <= prev_obj + 1e-13 * (1 + abs(prev_obj)):
            stall += 1
            bland = bland or stall > 40
        else:
            stall = 0
        prev_obj = T[m, -1]
    x = np.zeros(nv)
    for i in range(m):
        if basis[i] < nv:
            x[basis[i]] = T[i, -1]
    return SimplexResult(x, float(c @ x), status, iterations, T[m, nv : nv + m].copy())


def _degenerate_lp(seed):
    # small integer data with a mostly zero right-hand side; seeds 10 and 82
    # stall long enough to switch to Bland's rule
    rng = np.random.default_rng(seed)
    m, n = rng.integers(5, 30), rng.integers(5, 30)
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = np.zeros(m)
    b[: rng.integers(0, 3)] = 1.0
    return rng.integers(-3, 3, size=n).astype(float), A, b


def _lp_dual(n, degree):
    table = GegenbauerContext(n).eval_normalized_table(degree, chebyshev_grid(math.pi / 3, 8 * degree))
    return -np.ones(table.shape[1]), -table[1:], np.ones(degree)


@pytest.mark.parametrize(
    "problem",
    [("degenerate", s) for s in (0, 1, 2, 10, 82)] + [("dual", 8, 10), ("dual", 24, 20), ("dual", 32, 10)],
    ids=lambda problem: "-".join(map(str, problem)),
)
def test_simplex_bit_identical_to_textbook(problem):
    c, A, b = _degenerate_lp(problem[1]) if problem[0] == "degenerate" else _lp_dual(*problem[1:])
    got, ref = simplex_minimize(c, A, b), _textbook_simplex(c, A, b)
    assert (got.status, got.iterations) == (ref.status, ref.iterations)
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.slack_reduced_costs.tobytes() == ref.slack_reduced_costs.tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(ref.objective).tobytes()


@pytest.mark.parametrize(
    "problem",
    [("degenerate", s) for s in (0, 1, 2, 10, 82)] + [("dual", 8, 10), ("dual", 24, 20), ("dual", 32, 10)],
    ids=lambda problem: "-".join(map(str, problem)),
)
def test_tableau_append_reaches_the_one_shot_optimum(problem):
    # half the columns first, the rest appended to the optimal tableau: the
    # same status as all columns at once, and the same optimum
    c, A, b = _degenerate_lp(problem[1]) if problem[0] == "degenerate" else _lp_dual(*problem[1:])
    half = c.size // 2
    tab = _Tableau(c[:half], A[:, :half], b)
    if tab.pivot() == "optimal":
        tab.append(c[half:], A[:, half:])
        tab.pivot()
    got, ref = tab.result(), simplex_minimize(c, A, b)
    assert got.status == ref.status
    if ref.status == "optimal":
        assert got.x.size == c.size
        assert math.isclose(got.objective, ref.objective, rel_tol=1e-12, abs_tol=1e-12)


def test_simplex_dual_readout():
    # the slack reduced costs solve the dual: here max y st y <= 1
    res = simplex_minimize(np.array([-1.0]), np.array([[1.0], [0.5]]), np.array([1.0, 2.0]))
    assert res.status == "optimal"
    assert math.isclose(res.slack_reduced_costs[0], 1.0, rel_tol=1e-12)
    assert math.isclose(res.slack_reduced_costs[1], 0.0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def test_grid_includes_endpoints():
    g = chebyshev_grid(math.pi / 2, 33)
    assert g[0] == -1.0
    assert abs(g[-1] - math.cos(math.pi / 2)) < 1e-15
    assert np.all(np.diff(g) >= 0)
    with pytest.raises(ValueError, match="grid size must be >= 1"):
        chebyshev_grid(math.pi / 2, 0)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            chebyshev_grid(theta, 8)


def test_problem_validation():
    with pytest.raises(ValueError):
        LPProblem(n=1, theta=math.pi / 2, degree=4)
    with pytest.raises(ValueError):
        LPProblem(n=3, theta=0.0, degree=4)
    with pytest.raises(ValueError):
        LPProblem(n=3, theta=math.pi / 2, degree=0)
    with pytest.raises(ValueError):
        LPProblem(n=3, theta=math.pi / 2, degree=4, constraint_grid=np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        LPProblem(n=3, theta=math.pi / 2, degree=4, constraint_grid=np.array([-0.5, 0.0]))
    for grid in ([], [math.nan], [-1.0, math.nan, 0.5]):
        with pytest.raises(ValueError, match="constraint grid"):
            LPProblem(n=3, theta=math.pi / 3, degree=4, constraint_grid=np.array(grid))
    with pytest.raises(ValueError, match="capped at 4000"):
        LPProblem(n=3, theta=math.pi / 3, degree=4, constraint_grid=chebyshev_grid(math.pi / 3, 4001))


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_lp_antipodal():
    cert = lp_solve_spherical(LPProblem(n=3, theta=math.pi, degree=4))
    assert cert.certified
    assert abs(cert.objective - 2.0) < 1e-6


def test_lp_cross_polytope_n3():
    cert = lp_solve_spherical(LPProblem(n=3, theta=math.pi / 2, degree=8))
    assert cert.certified
    assert abs(cert.objective - 6.0) < 1e-4


def test_lp_beats_closed_form_n4_pi_third():
    cert = lp_solve_spherical(LPProblem(n=4, theta=math.pi / 3, degree=12))
    closed, _ = kl_spherical_code_bound(4, math.pi / 3)
    assert cert.certified
    assert cert.objective <= closed.to_float() * (1 + 1e-6)


@pytest.mark.parametrize("n", range(2, 13))
def test_lp_soundness_floors(n):
    # explicit codes give lower bounds the certified objective must respect
    for theta, floor in [
        (math.pi, 2.0),
        (math.pi / 2, 2.0 * n),
        (math.acos(-1.0 / n), n + 1.0),
    ]:
        cert = lp_solve_spherical(LPProblem(n=n, theta=theta, degree=14))
        assert cert.certified
        assert cert.objective >= floor - 1e-7


def _root_angles():
    # theta = acos t_k for each root t_k <= 1/2 (pi/2 at k = 1): the angles
    # where the code bound takes degree k, and the hyperbolic optimizer's
    # candidates; each is new here unless it is already a grid angle
    for n in (3, 4, 6, 8, 12, 16, 24, 32):
        for t in itertools.takewhile(lambda t: t <= 0.5, GegenbauerContext(n).largest_roots(20)):
            yield math.acos(t), n


# a certified objective is a proven bound on the code, so where it stays
# below the code bound that bound is proven too (by at least 2.35 times at
# the root angles at degree 20); n = 48 is left out, since its angle
# acos t_7 certifies at none of the degrees 10 to 40
@pytest.mark.parametrize("theta, n", list(dict.fromkeys([
    *itertools.product([math.pi / 3, 0.35 * math.pi, math.pi / 2], range(3, 11)),
    *_root_angles()])))
def test_lp_dominates_closed_form(n, theta):
    cert = lp_solve_spherical(LPProblem(n=n, theta=theta, degree=20))
    closed, _ = kl_spherical_code_bound(n, theta)
    assert cert.certified
    assert cert.objective <= closed.to_float() * (1 + 1e-6)


def test_degree_monotone_on_fixed_grid():
    theta = 2.0
    grid = chebyshev_grid(theta, 160)
    prev = None
    for d in (4, 6, 8, 10, 12):
        p = LPProblem(n=4, theta=theta, degree=d, constraint_grid=grid)
        cert = lp_solve_spherical(p)
        raw = cert.diagnostics["raw_objective"]
        if prev is not None:
            assert raw <= prev + 1e-9
        prev = raw


@pytest.mark.parametrize(
    "n, theta, degree, size",
    [(3, math.pi / 3, 40, None), (8, math.pi / 3, 20, None), (16, math.pi / 3, 30, None),
     (24, math.pi / 3, 40, None), (32, math.pi / 3, 20, None), (16, math.pi / 3, 12, 160),
     (4, 2.0, 12, 160)],
)
def test_column_generation_reaches_the_whole_grid_optimum(monkeypatch, n, theta, degree, size):
    # the last solution the tableau hands back prices no grid point below
    # -PIVOT_TOL, and its raw objective is that of one solve on every point
    final = []
    result = _Tableau.result

    def kept(self):
        res = result(self)
        final.append(res.slack_reduced_costs)
        return res

    monkeypatch.setattr(_Tableau, "result", kept)
    grid = None if size is None else chebyshev_grid(theta, size)
    p = LPProblem(n=n, theta=theta, degree=degree, constraint_grid=grid)
    cert = lp_solve_spherical(p)
    phi = GegenbauerContext(n).eval_normalized_table(degree, p.constraint_grid)[1:]
    assert np.all(-1.0 - final[-1] @ phi >= -PIVOT_TOL)
    full = simplex_minimize(-np.ones(phi.shape[1]), -phi, np.ones(degree))
    assert full.status == "optimal"
    raw = 1.0 + np.maximum(full.slack_reduced_costs, 0.0).sum()
    assert math.isclose(cert.diagnostics["raw_objective"], raw, rel_tol=1e-9)
    assert cert.diagnostics["columns"] < cert.diagnostics["grid_size"] == phi.shape[1]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_solve_builds_no_table_wider_than_its_constraint_grid(monkeypatch):
    # the sign check evaluates g only at the ends of [-1, cos theta] and at
    # the roots of g', so the widest Gegenbauer table is the constraint grid:
    # column generation prices all 32 * degree = 320 points at degree 10
    sizes = []
    table = GegenbauerContext.eval_normalized_table

    def counted(self, kmax, t):
        out = table(self, kmax, t)
        sizes.append(out.shape[1])
        return out

    monkeypatch.setattr(GegenbauerContext, "eval_normalized_table", counted)
    cert = lp_solve_spherical(LPProblem(n=8, theta=math.pi / 3, degree=10))
    assert cert.diagnostics["rounds"] >= 1
    assert cert.diagnostics["columns"] <= cert.diagnostics["grid_size"] == 320
    assert max(sizes) == 320


def test_verify_linear_certificate_at_pi():
    # at n = 3 the degree-one basis polynomial is t itself, so (1, 1) is
    # exactly g(t) = 1 + t, whose single constraint value is g(-1) = 0
    p = LPProblem(n=3, theta=math.pi, degree=1)
    cert = LPCertificate(n=3, theta=math.pi, coefficients=(1.0, 1.0))
    rep = verify_certificate(cert, p)
    assert rep.ok and cert.certified
    assert rep.max_sign_residual == 0.0 and rep.residual_location == -1.0  # g(-1) = 0
    assert cert.objective == 2.0


def test_verify_flags_negative_coefficient():
    p = LPProblem(n=3, theta=math.pi / 2, degree=3)
    cert = LPCertificate(n=3, theta=math.pi / 2, coefficients=(1.0, -1e-3, 0.5, 0.0))
    rep = verify_certificate(cert, p)
    assert not rep.coefficients_ok and not cert.certified
    assert rep.min_coefficient_ratio < -1e-4


def test_verify_solver_output():
    p = LPProblem(n=3, theta=math.pi / 2, degree=8)
    cert = lp_solve_spherical(p)
    rep = verify_certificate(cert, p)
    assert rep.ok
    assert rep.max_sign_residual <= 1e-9 * cert.objective


def test_verify_flags_sign_violation():
    # a plainly positive function on the constraint interval
    p = LPProblem(n=3, theta=math.pi / 2, degree=2)
    cert = LPCertificate(n=3, theta=math.pi / 2, coefficients=(1.0, 0.0, 0.0))
    rep = verify_certificate(cert, p)
    assert not rep.sign_ok and not cert.certified
    assert rep.max_sign_residual == 1.0  # g is identically 1


@pytest.mark.parametrize(
    "theta, coefficients",
    [(math.pi / 2, c) for c in [(), (0.0, 1.0), (-1.0, 0.5), (math.nan, 1.0), (1.0, math.inf)]]
    + [(t, (1.0, 1.0)) for t in (0.0, -1.0, 3.5, math.nan)],
)
def test_certificate_rejects_bad_input(theta, coefficients):
    with pytest.raises(ValueError, match="certificate needs|theta must"):
        LPCertificate(n=3, theta=theta, coefficients=coefficients)


def test_certificate_past_the_float_range_is_a_value_error():
    # g(1)/c_0 is about 1e329 here; as JSON too
    coefficients = (1.0,) + (1e300,) * 40
    with pytest.raises(ValueError, match="exceeds the float range"):
        LPCertificate(n=64, theta=math.pi / 3, coefficients=coefficients)
    doc = {"n": 64, "theta": math.pi / 3, "degree": 40, "coefficients": list(coefficients)}
    with pytest.raises(ValueError, match="exceeds the float range"):
        certificate_from_json(json.dumps(doc))
    # g(1) = 1 is finite, but g cannot be evaluated on [-1, 1] in floats
    with pytest.raises(ValueError, match="exceeds the float range"):
        LPCertificate(n=3, theta=math.pi / 3, coefficients=(1.0, -1e308, 1e308))


def test_certificate_zero_coefficients_take_no_value_at_one():
    # at n = 100 000, C_k(1) passes the float range from k = 90 on: an exact
    # zero c_k must not reach it, and a nonzero c_k is judged by c_k C_k(1)
    zeros = LPCertificate(n=100_000, theta=math.pi / 3, coefficients=(1.0,) + (0.0,) * 200)
    assert zeros.objective == 1.0 and zeros.max_sign_residual == 1.0  # g is identically 1
    assert not zeros.certified
    # ln C_90(1) = 718.05 and c_90 C_90(1) = 5.4e11
    small = (1.0,) + (0.0,) * 89 + (1e-300,)
    cert = LPCertificate(n=100_000, theta=math.pi / 3, coefficients=small)
    assert cert.objective == _exact_objective_up(100_000, small)
    assert math.isfinite(cert.max_sign_residual)
    # ln C_200(1) = 1439.5, so c_200 C_200(1) is about e^749
    past = (1.0,) + (0.0,) * 199 + (1e-300,)
    with pytest.raises(ValueError, match="exceeds the float range"):
        LPCertificate(n=100_000, theta=math.pi / 3, coefficients=past)


@pytest.mark.parametrize(
    "n, degree", [(3, 20), (4, 40), (8, 10), (8, 40), (24, 10), (24, 40), (64, 30)]
)
def test_zero_padding_leaves_the_certificate_claims_alone(n, degree):
    # the check runs at g's actual degree: exact-zero coefficients that
    # raise the declared degree change no claim, bit for bit
    cert = lp_solve_spherical(LPProblem(n=n, theta=math.pi / 3, degree=degree))
    for extra in (1, 7, MAX_DEGREE - degree):
        padded = LPCertificate(n=n, theta=cert.theta, coefficients=cert.coefficients + (0.0,) * extra)
        assert padded.degree == degree + extra
        assert padded.objective == cert.objective and padded.certified == cert.certified
        got, want = padded.report, cert.report
        assert (got.max_sign_residual, got.residual_location) == (
            want.max_sign_residual, want.residual_location)
        # still taken over every coefficient, the padded zeros too
        assert got.min_coefficient_ratio == min(want.min_coefficient_ratio, 0.0)


def _mp_max_of_g(n, coefficients, hi, points=300):
    # 40-digit max of g = sum c_k C_k^(alpha) on [-1, hi], n > 2, from the plain
    # three-term recurrence (k + 1) C_(k+1) = 2 (k + alpha) t C_k
    # - (k + 2 alpha - 1) C_(k-1) and its derivative: g and g' on a
    # Chebyshev-spaced scan, then bisection of g' in every cell where it
    # falls through zero
    with mpmath.workdps(40):
        alpha = mpmath.mpf(n - 2) / 2
        c = [mpmath.mpf(ck) for ck in coefficients]

        def g_and_slope(t):
            p0, p1, d0, d1 = mpmath.mpf(1), 2 * alpha * t, mpmath.mpf(0), 2 * alpha
            g, slope = c[0] + c[1] * p1, c[1] * d1
            for k in range(1, len(c) - 1):
                a, b, e = 2 * (k + alpha), k + 2 * alpha - 1, k + 1
                p0, p1 = p1, (a * t * p1 - b * p0) / e
                d0, d1 = d1, (a * (p0 + t * d1) - b * d0) / e
                g, slope = g + c[k + 1] * p1, slope + c[k + 1] * d1
            return g, slope

        lo, top = mpmath.mpf(-1), mpmath.mpf(hi)
        ts = [lo + (top - lo) * (1 - mpmath.cos(mpmath.pi * j / (points - 1))) / 2
              for j in range(points)]
        scan = [g_and_slope(t) for t in ts]
        best = max(scan[0][0], scan[-1][0])
        for (a, (_, sa)), (b, (_, sb)) in zip(zip(ts, scan), zip(ts[1:], scan[1:])):
            if sa > 0 >= sb:
                for _ in range(80):
                    m = (a + b) / 2
                    if g_and_slope(m)[1] > 0:
                        a = m
                    else:
                        b = m
                best = max(best, g_and_slope((a + b) / 2)[0])
        return best


@pytest.mark.parametrize("n", [3, 8, 24, 64])
def test_sign_residual_matches_a_40_digit_maximum(n):
    # measured within 3.3e-17 sum |w_k| (at n = 8); every residual here is
    # larger than 1e-16 sum |w_k| in size, so a reported 0 would fail
    cert = lp_solve_spherical(LPProblem(n=n, theta=math.pi / 3, degree=40))
    scale = float(np.abs(_normalized_weights(GegenbauerContext(n), cert.coefficients)).sum())
    exact = _mp_max_of_g(n, cert.coefficients, math.cos(cert.theta))
    assert abs(cert.max_sign_residual - float(exact)) <= 1e-16 * scale


def test_certificate_degree_is_capped_before_any_check(monkeypatch):
    # past the LPProblem degree cap the check's root solve grows too costly
    # for documents read from outside; reject before it runs
    def no_check(*args):
        raise AssertionError("the check ran")

    monkeypatch.setattr(spherical_lp, "_max_violation", no_check)
    coefficients = (1.0,) * (MAX_DEGREE + 2)
    with pytest.raises(ValueError, match="capped at 200"):
        LPCertificate(n=3, theta=math.pi / 3, coefficients=coefficients)
    doc = {"n": 3, "theta": math.pi / 3, "degree": MAX_DEGREE + 1, "coefficients": list(coefficients)}
    with pytest.raises(ValueError, match="capped at 200"):
        certificate_from_json(json.dumps(doc))
    # 201 coefficients, degree 200, reach the check
    with pytest.raises(AssertionError, match="the check ran"):
        LPCertificate(n=3, theta=math.pi / 3, coefficients=coefficients[1:])


def test_certificate_takes_no_claims():
    # objective, residual and certified are derived, never given
    for claim in ("objective", "max_sign_residual", "certified"):
        with pytest.raises(TypeError):
            LPCertificate(n=3, theta=math.pi, coefficients=(1.0, 1.0), **{claim: 1.0})


def _exact_objective_up(n, coefficients):
    # g(1)/c_0 in Fractions, C_k(1) = C(k + n - 3, k) (1 at n = 2), and the
    # least float at or above it
    from fractions import Fraction

    g1 = sum(Fraction(c) * (1 if n == 2 else math.comb(k + n - 3, k))
             for k, c in enumerate(coefficients))
    q = g1 / Fraction(coefficients[0])
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


@pytest.mark.parametrize(
    "n, theta, degree", [(2, math.pi / 3, 6), (3, math.pi / 3, 10), (8, math.pi / 3, 10),
                         (24, math.pi / 3, 20), (32, math.pi / 3, 20), (5, 2.0, 12)]
)
def test_objective_is_exact_ratio_rounded_up(n, theta, degree):
    cert = lp_solve_spherical(LPProblem(n=n, theta=theta, degree=degree))
    assert cert.objective == _exact_objective_up(n, cert.coefficients)
    # a certificate with c_0 raised by one ulp has a smaller objective
    bumped = (math.nextafter(cert.coefficients[0], math.inf),) + cert.coefficients[1:]
    lower = LPCertificate(n=n, theta=theta, coefficients=bumped)
    assert lower.objective == _exact_objective_up(n, bumped) <= cert.objective


@pytest.mark.parametrize("n, theta, degree", [(3, 2.5, 1), (24, math.pi / 3, 40)])
def test_eval_g_independent_of_point_count(n, theta, degree):
    # a matrix-vector product rounded g(cos 2.5) of the n = 3 degree-1
    # weights to 0.0 among 1 000 points and to 3.99e-18 among 2
    cert = lp_solve_spherical(LPProblem(n=n, theta=theta, degree=degree))
    ctx = GegenbauerContext(n)
    w = _normalized_weights(ctx, cert.coefficients)
    ts = np.linspace(-1.0, 1.0, 1000)
    ts[0] = math.cos(theta)
    together = _eval_g(ctx, w, ts)
    alone = np.concatenate([_eval_g(ctx, w, t) for t in ts])
    assert together.tobytes() == alone.tobytes()


@pytest.mark.parametrize("n", [3, 4, 8, 24, 64])
@pytest.mark.parametrize("degree", [10, 40])
def test_eval_g_is_the_scaled_table_summed_in_order(n, degree):
    # three rolling rows give what the whole table, its rows scaled and
    # added in index order, gave
    ctx = GegenbauerContext(n)
    w = np.random.default_rng(n + degree).random(degree + 1) * 10.0 ** -np.arange(degree + 1)
    ts = np.concatenate(([-1.0, -0.0, 0.0, 1.0], np.linspace(-1.0, 1.0, 2001)))
    table = ctx.eval_normalized_table(degree, ts) * w[:, None]
    for row in table[1:]:
        table[0] += row
    assert _eval_g(ctx, w, ts).tobytes() == table[0].tobytes()


@pytest.mark.parametrize(
    "n, degree", [(3, 20), (3, 40), (8, 10), (8, 40), (16, 10), (24, 10), (32, 20)]
)
def test_sign_check_reaches_the_dense_grid_maximum(n, degree):
    # the sign check samples no grid: g at the ends of the interval and at
    # the exact critical points must find g's maximum on a dense grid
    p = LPProblem(n=n, theta=math.pi / 3, degree=degree)
    cert = lp_solve_spherical(p)
    ctx = GegenbauerContext(n)
    w = _normalized_weights(ctx, cert.coefficients)
    g1 = float(w.sum())
    dense = np.linspace(-1.0, math.cos(p.theta), 100_001)
    assert cert.max_sign_residual >= _eval_g(ctx, w, dense).max() - 1e-16 * g1
    assert verify_certificate(cert, p).ok


# ---------------------------------------------------------------------------
# Euclidean conversion
# ---------------------------------------------------------------------------


def test_euclid_conversion_linear_g():
    # g = 1 + t: C_1(t) = (n - 2) t for n > 2, and T_1(t) = t at n = 2
    for n in (2, 5, 9):
        cert = LPCertificate(n=n, theta=math.pi, coefficients=(1.0, 1.0 / max(n - 2, 1)))
        val = euclid_bound_from_certificate(cert)
        assert math.isclose(val.to_float(), 2.0, rel_tol=1e-12)


def test_euclid_conversion_cross_polytope():
    p = LPProblem(n=3, theta=math.pi / 2, degree=8)
    cert = lp_solve_spherical(p)
    val = euclid_bound_from_certificate(cert)
    expected = 6.0 * (math.sqrt(2.0) / 2.0) ** 3
    assert math.isclose(val.to_float(), expected, rel_tol=1e-4)


def test_euclid_conversion_rejects_small_theta():
    p = LPProblem(n=3, theta=1.0, degree=4)
    cert = lp_solve_spherical(p)
    assert cert.certified
    with pytest.raises(ValueError, match="theta >= pi/3"):
        euclid_bound_from_certificate(cert)


def test_euclid_conversion_rejects_uncertified():
    # g = 1 everywhere: the conversion would have read 0.354 from it
    cert = LPCertificate(n=3, theta=math.pi / 2, coefficients=(1.0, 0.0, 0.0))
    assert not cert.certified
    with pytest.raises(ValueError, match="uncertified"):
        euclid_bound_from_certificate(cert)


def test_euclid_conversion_consistent_with_cz():
    # at the cz-optimal angle the conversion scales g(1)/c_0 by the same
    # sin^n(theta/2) that cz applies to the closed-form code bound, so a
    # certified LP objective below that bound converts to a density below cz
    for n in (6, 24, 64):
        rec = cz_bound(n)
        ctx = GegenbauerContext(n)
        theta = math.acos(ctx.largest_root(rec.k_star)) + 1e-13
        closed, k = kl_spherical_code_bound(n, theta)
        assert k == rec.k_star
        p = LPProblem(n=n, theta=theta, degree=10)
        cert = lp_solve_spherical(p)
        assert cert.certified and cert.objective < closed.to_float()
        val = euclid_bound_from_certificate(cert)
        expected = rec.value.log_value - closed.log_value + math.log(cert.objective)
        assert math.isclose(val.log_value, expected, rel_tol=1e-9, abs_tol=1e-9)
        assert val.log_value < rec.value.log_value


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_certificate_json_round_trip_bit_exact():
    p = LPProblem(n=4, theta=math.pi / 3, degree=10)
    cert = lp_solve_spherical(p)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.n == cert.n and back.theta == cert.theta
    assert back.degree == cert.degree
    assert back.coefficients == cert.coefficients  # exact float equality
    assert back.objective == cert.objective
    assert back.max_sign_residual == cert.max_sign_residual
    assert back.certified == cert.certified
    assert certificate_to_json(back) == text


# g = 1 + t at n = 3 (C_1(t) = t), certified at theta = pi; each document
# below breaks one rule of the schema
_GOOD_DOC = {"n": 3, "theta": math.pi, "degree": 1, "coefficients": [1.0, 1.0]}


@pytest.mark.parametrize(
    "doc, message",
    [({**_GOOD_DOC, **change}, "n and degree must be integers")
     for change in ({"n": 3.9}, {"n": 3.0}, {"n": True}, {"n": None},
                    {"degree": 1.5}, {"degree": True})]
    + [({**_GOOD_DOC, **change}, "theta and the coefficients must be numbers")
       for change in ({"theta": None}, {"theta": "3.14"}, {"theta": True},
                      {"coefficients": 5}, {"coefficients": ["1", "1"]})]
    + [({**_GOOD_DOC, "degree": 2}, "coefficient count does not match")]
    + [({**_GOOD_DOC, "coefficients": [1, 10**400]}, "exceeds the float range")]
    + [({k: v for k, v in _GOOD_DOC.items() if k != key}, "needs n, theta")
       for key in _GOOD_DOC]
    + [([_GOOD_DOC], "needs n, theta")],
)
def test_certificate_from_json_rejects_malformed_documents(doc, message):
    assert certificate_from_json(json.dumps(_GOOD_DOC)).certified
    with pytest.raises(ValueError, match=message):
        certificate_from_json(json.dumps(doc))


def test_certificate_json_schema_fields():
    cert = lp_solve_spherical(LPProblem(n=3, theta=math.pi, degree=2))
    doc = json.loads(certificate_to_json(cert))
    assert set(doc) == {
        "n",
        "theta",
        "degree",
        "coefficients",
        "objective",
        "residual",
        "certified",
    }
    assert len(doc["coefficients"]) == doc["degree"] + 1
