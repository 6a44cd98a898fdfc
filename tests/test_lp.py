import json
import math

import numpy as np
import pytest

from packbounds.euclid_bounds import cz_bound, kl_spherical_code_bound, shared_context
from packbounds.orthopoly import GegenbauerContext
from packbounds.spherical_lp import (
    LPCertificate,
    LPProblem,
    certificate_from_json,
    certificate_to_json,
    chebyshev_grid,
    euclid_bound_from_certificate,
    lp_solve_spherical,
    simplex_minimize,
    verify_certificate,
    _eval_g,
    _normalized_weights,
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
    table = shared_context(n).eval_normalized_table(degree, chebyshev_grid(math.pi / 3, 8 * degree))
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


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("theta", [math.pi / 3, 0.35 * math.pi, math.pi / 2])
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
        cert = lp_solve_spherical(p, max_rounds=1)
        raw = cert.diagnostics["raw_objective"]
        if prev is not None:
            assert raw <= prev + 1e-9
        prev = raw


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_solve_builds_one_sign_grid_table_per_round(monkeypatch):
    # the final re-verify reuses the last round's fine-grid table; at degree
    # 10 the constraint grids stay below the 1000 points of a sign grid
    sizes = []
    table = GegenbauerContext.eval_normalized_table

    def counted(self, kmax, t):
        out = table(self, kmax, t)
        sizes.append(out.shape[1])
        return out

    monkeypatch.setattr(GegenbauerContext, "eval_normalized_table", counted)
    cert = lp_solve_spherical(LPProblem(n=8, theta=math.pi / 3, degree=10))
    assert cert.diagnostics["rounds"] == 3
    assert sum(size >= 1000 for size in sizes) == 3


def test_verify_linear_certificate_at_pi():
    # at n = 3 the degree-one basis polynomial is t itself, so (1, 1) is
    # exactly g(t) = 1 + t, whose single constraint value is g(-1) = 0
    p = LPProblem(n=3, theta=math.pi, degree=1)
    cert = LPCertificate(
        n=3,
        theta=math.pi,
        coefficients=(1.0, 1.0),
        objective=2.0,
        max_sign_residual=0.0,
        verification_grid_size=0,
        certified=True,
    )
    rep = verify_certificate(cert, p)
    assert rep.ok
    assert abs(rep.max_sign_residual) < 1e-14  # g(-1) = 0 exactly


def test_verify_flags_negative_coefficient():
    p = LPProblem(n=3, theta=math.pi / 2, degree=3)
    cert = LPCertificate(
        n=3,
        theta=math.pi / 2,
        coefficients=(1.0, -1e-3, 0.5, 0.0),
        objective=1.0,
        max_sign_residual=0.0,
        verification_grid_size=0,
        certified=True,
    )
    rep = verify_certificate(cert, p)
    assert not rep.coefficients_ok
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
    cert = LPCertificate(
        n=3,
        theta=math.pi / 2,
        coefficients=(1.0, 0.0, 0.0),
        objective=1.0,
        max_sign_residual=0.0,
        verification_grid_size=0,
        certified=True,
    )
    rep = verify_certificate(cert, p)
    assert not rep.sign_ok


@pytest.mark.parametrize("n, degree", [(3, 20), (8, 10), (16, 10), (24, 10), (32, 20)])
def test_sign_check_reaches_the_dense_grid_maximum(n, degree):
    # the sign check runs no local search: its grid and the exact critical
    # points of g must find g's maximum on a much denser grid
    p = LPProblem(n=n, theta=math.pi / 3, degree=degree)
    cert = lp_solve_spherical(p)
    ctx = shared_context(n)
    w = _normalized_weights(ctx, cert.coefficients)
    g1 = float(w.sum())
    dense = np.linspace(-1.0, math.cos(p.theta), 100_001)
    assert cert.max_sign_residual >= _eval_g(ctx, w, dense).max() - 1e-16 * g1
    assert verify_certificate(cert, p).ok


# ---------------------------------------------------------------------------
# Euclidean conversion
# ---------------------------------------------------------------------------


def test_euclid_conversion_linear_g():
    for n in (2, 5, 9):
        cert = LPCertificate(
            n=n,
            theta=math.pi,
            coefficients=(1.0, 1.0),
            objective=2.0,
            max_sign_residual=0.0,
            verification_grid_size=0,
            certified=True,
        )
        p = LPProblem(n=n, theta=math.pi, degree=1)
        val = euclid_bound_from_certificate(cert, p)
        assert math.isclose(val.to_float(), 2.0, rel_tol=1e-12)


def test_euclid_conversion_cross_polytope():
    p = LPProblem(n=3, theta=math.pi / 2, degree=8)
    cert = lp_solve_spherical(p)
    val = euclid_bound_from_certificate(cert, p)
    expected = 6.0 * (math.sqrt(2.0) / 2.0) ** 3
    assert math.isclose(val.to_float(), expected, rel_tol=1e-4)


def test_euclid_conversion_rejects_small_theta():
    p = LPProblem(n=3, theta=1.0, degree=4)
    cert = LPCertificate(
        n=3,
        theta=1.0,
        coefficients=(1.0, 1.0),
        objective=2.0,
        max_sign_residual=0.0,
        verification_grid_size=0,
        certified=True,
    )
    with pytest.raises(ValueError):
        euclid_bound_from_certificate(cert, p)


def test_euclid_conversion_rejects_uncertified():
    p = LPProblem(n=3, theta=math.pi, degree=1)
    cert = LPCertificate(
        n=3,
        theta=math.pi,
        coefficients=(1.0, 1.0),
        objective=2.0,
        max_sign_residual=0.0,
        verification_grid_size=0,
        certified=False,
    )
    with pytest.raises(ValueError):
        euclid_bound_from_certificate(cert, p)


def test_euclid_conversion_consistent_with_cz():
    # a synthetic certificate carrying the closed-form objective at the
    # cz-optimal angle must reproduce the cz value through the conversion
    for n in (6, 24, 64):
        rec = cz_bound(n)
        ctx = shared_context(n)
        theta = math.acos(ctx.largest_root(rec.k_star)) + 1e-13
        closed, k = kl_spherical_code_bound(n, theta)
        assert k == rec.k_star
        cert = LPCertificate(
            n=n,
            theta=theta,
            coefficients=(1.0,),
            objective=closed.to_float(),
            max_sign_residual=0.0,
            verification_grid_size=0,
            certified=True,
        )
        val = euclid_bound_from_certificate(cert, LPProblem(n=n, theta=theta, degree=1))
        assert math.isclose(val.log_value, rec.value.log_value, rel_tol=1e-9, abs_tol=1e-9)


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
