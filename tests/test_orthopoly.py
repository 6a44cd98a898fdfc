import math
import re

import numpy as np
import pytest
from scipy.special import eval_chebyt, eval_gegenbauer

from packbounds import euclid_bounds as eb
from packbounds import orthopoly
from packbounds.orthopoly import DEGREE_CAP, GegenbauerContext
from packbounds.specfun import integrate
from packbounds.spherical_lp import _eval_g, _normalized_weights


def _phi(ctx, k, t):
    # C_k(t) / C_k(1): row k of the normalized table
    return ctx.eval_normalized_table(k, t)[k]


def test_degree_zero_is_one():
    ts = np.array([-1.0, -0.3, 0.0, 0.99, 1.0])
    for n in (2, 3, 4, 11):
        assert np.all(_phi(GegenbauerContext(n), 0, ts) == 1.0)


def test_chebyshev_u_closed_form_n4():
    # alpha = 1 gives the second-kind Chebyshev family, U_3(1) = 4
    ctx = GegenbauerContext(4)
    assert math.isclose(_phi(ctx, 3, 0.5)[0], (8 * 0.125 - 4 * 0.5) / 4, rel_tol=1e-14)
    ts = np.linspace(-1, 1, 17)
    for t, got in zip(ts, _phi(ctx, 3, ts)):
        u3 = 8 * t**3 - 4 * t
        assert math.isclose(got, u3 / 4, rel_tol=1e-12, abs_tol=1e-13)


def test_legendre_closed_form_n3():
    # P_2(1) = 1, so the normalized and the raw Legendre polynomial agree
    ctx = GegenbauerContext(3)
    assert math.isclose(_phi(ctx, 2, 0.0)[0], -0.5, rel_tol=1e-14)
    ts = np.linspace(-1, 1, 9)
    for t, got in zip(ts, _phi(ctx, 2, ts)):
        p2 = (3 * t * t - 1) / 2
        assert math.isclose(got, p2, rel_tol=1e-12, abs_tol=1e-14)


def test_chebyshev_t_basis_n2():
    ctx = GegenbauerContext(2)
    ts = np.linspace(-1, 1, 11)
    table = ctx.eval_normalized_table(7, ts)
    for k in range(8):
        for t, got in zip(ts, table[k]):
            assert math.isclose(
                got, math.cos(k * math.acos(float(t))), rel_tol=1e-10, abs_tol=1e-12
            )


def test_normalized_matches_raw_ratio():
    ts = np.array([-0.8, 0.1, 0.65])
    for n in (2, 3, 5, 12):
        ctx = GegenbauerContext(n)
        for k in (1, 4, 9):
            if n == 2:
                # scipy's C_k^0 vanishes; the n = 2 basis is T_k, T_k(1) = 1
                raw, at_one = eval_chebyt(k, ts), 1.0
            else:
                raw, at_one = eval_gegenbauer(k, n / 2 - 1, ts), eval_gegenbauer(k, n / 2 - 1, 1.0)
            for got, want in zip(_phi(ctx, k, ts), raw / at_one):
                assert math.isclose(got, want, rel_tol=1e-12)
            assert math.isclose(
                math.log(at_one), ctx.log_value_at_one(k), rel_tol=1e-12, abs_tol=1e-12
            )


@pytest.mark.parametrize("n", [2, 3, 5, 100_000])
@pytest.mark.parametrize("k", [-1, -5])
def test_log_value_at_one_rejects_a_negative_degree(n, k):
    # at n = 2 a negative degree returned ln C_k(1) = 0.0
    with pytest.raises(ValueError, match="requires k >= 0"):
        GegenbauerContext(n).log_value_at_one(k)


@pytest.mark.parametrize("n", [2, 3, 8, 24, 200])
def test_normalized_table_bit_identical_to_array_expression(n):
    # the in-place recurrence performs the array expression's operations
    t = np.concatenate(([-1.0, -0.0, 0.0, 1.0], np.linspace(-1.0, 0.5, 997)))
    a = n / 2.0 - 1.0
    ref = np.empty((41, t.size))
    ref[0], ref[1] = 1.0, t
    for j in range(2, 41):
        ref[j] = (2 * (j + a - 1) * t * ref[j - 1] - (j - 1) * ref[j - 2]) / (j + 2 * a - 1)
    assert GegenbauerContext(n).eval_normalized_table(40, t).tobytes() == ref.tobytes()


def test_normalized_stays_bounded_at_extreme_degree():
    ctx = GegenbauerContext(600)
    vals = ctx.eval_normalized_table(300, np.linspace(-1, 1, 33))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# largest roots
# ---------------------------------------------------------------------------


def test_root_k1_is_zero():
    for n in (2, 3, 10, 101):
        assert GegenbauerContext(n).largest_root(1) == 0.0


def test_root_k2_closed_form():
    for n in (2, 3, 4, 9, 25):
        ctx = GegenbauerContext(n)
        got = ctx.largest_root(2)
        if n == 2:
            expected = math.cos(math.pi / 4)  # largest root of T_2
        else:
            expected = 1.0 / math.sqrt(n)
        assert math.isclose(got, expected, abs_tol=1e-12)


def test_root_k3_n4():
    assert math.isclose(
        GegenbauerContext(4).largest_root(3), 1 / math.sqrt(2), abs_tol=1e-12
    )


def test_roots_increasing_in_k():
    for n in range(3, 65):
        roots = GegenbauerContext(n).largest_roots(50)
        assert all(a < b for a, b in zip(roots, roots[1:]))
        assert roots[-1] < 1.0


def _root_by_polynomial_bisection(ctx, k):
    # independent route: bisect the normalized polynomial on (t0, 1)
    lo, hi = 0.0, 1.0
    f = lambda t: _phi(ctx, k, t)[0]  # noqa: E731
    # move lo up to the last sign change below 1
    grid = np.linspace(0.0, 1.0, 600)
    vals = [f(float(t)) for t in grid]
    idx = max(i for i in range(len(grid) - 1) if vals[i] * vals[i + 1] <= 0.0)
    lo, hi = float(grid[idx]), float(grid[idx + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) * f(hi) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [3, 7, 14, 30])
@pytest.mark.parametrize("k", [2, 5, 11, 20])
def test_root_vs_polynomial_bisection(n, k):
    ctx = GegenbauerContext(n)
    assert math.isclose(
        ctx.largest_root(k), _root_by_polynomial_bisection(ctx, k), abs_tol=1e-10
    )


@pytest.mark.parametrize("n,k", [(3, 6), (8, 12), (24, 40), (64, 25)])
def test_root_value_and_no_sign_change_above(n, k):
    ctx = GegenbauerContext(n)
    r = ctx.largest_root(k)
    assert abs(_phi(ctx, k, r)[0]) <= 1e-8
    ts = np.linspace(r + 1e-9, 1.0, 1000)
    vals = _phi(ctx, k, ts)
    assert np.all(vals > 0.0)


def test_degree_cap_enforced():
    ctx = GegenbauerContext(4)
    with pytest.raises(ValueError):
        ctx.largest_root(DEGREE_CAP + 1)
    with pytest.raises(ValueError, match="k >= 1"):
        ctx.largest_root(0)
    with pytest.raises(ValueError):
        ctx.eval_normalized_table(DEGREE_CAP + 1, [0.5])


@pytest.mark.parametrize("n", [2, 5, 200])
def test_normalized_table_rejects_what_it_cannot_tabulate(n):
    # a negative degree, a non-finite t, and a t where the table overflows
    ctx = GegenbauerContext(n)
    with pytest.raises(ValueError, match="kmax >= 0"):
        ctx.eval_normalized_table(-1, [0.5])
    for kmax, t in [(1, math.inf), (2, math.nan), (40, -math.inf), (2, 1e308), (40, 1e200)]:
        with pytest.raises(ValueError, match="finite t"):
            ctx.eval_normalized_table(kmax, [0.5, t])
    # past |t| = 1 the rows grow, but stay finite here
    assert np.isfinite(ctx.eval_normalized_table(40, [-50.0, 1.5])).all()
    assert ctx.eval_normalized_table(0, [math.nan]).tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# means over the sphere: the LP's objective g(1)/c_0 takes c_0 as the mean
# ---------------------------------------------------------------------------


def _sphere_mean(n, g):
    # mean of g(<x, y>) over independent uniform points of S^(n-1), after
    # t = cos(phi): int_0^pi g(cos phi) sin^(n-2) phi dphi / int_0^pi sin^(n-2)
    den = integrate(lambda p: np.sin(p) ** (n - 2), 0.0, math.pi, rel_tol=1e-12)
    # zero means (the basis above degree 0) need an absolute target
    num = integrate(
        lambda p: g(np.cos(p)) * np.sin(p) ** (n - 2),
        0.0,
        math.pi,
        rel_tol=1e-12,
        abs_tol=1e-12 * den.value,
    )
    return num.value / den.value


def test_mean_of_constant_and_of_basis():
    for n in (2, 3, 6):
        ctx = GegenbauerContext(n)
        assert _sphere_mean(n, lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2, 5):
            assert _sphere_mean(n, lambda t, k=k: _phi(ctx, k, t)) == pytest.approx(
                0.0, abs=1e-11
            )


def test_mean_t_squared_flat_weight():
    assert _sphere_mean(3, lambda t: t * t) == pytest.approx(1.0 / 3.0, rel=1e-11)


@pytest.mark.parametrize("n", [2, 3, 6, 13])
def test_mean_basis_vs_quadrature(n):
    ctx = GegenbauerContext(n)
    weights = _normalized_weights(ctx, (0.7, 0.2, 0.4, 0.1, 0.05))
    assert math.isclose(_sphere_mean(n, lambda t: _eval_g(ctx, weights, t)), 0.7, rel_tol=1e-10)


def test_poly_value_at_one():
    # g(1) = sum c_k C_k(1) = sum x_k, the LP objective's numerator
    ctx = GegenbauerContext(5)
    coefficients = (1.0, 0.5, 0.25)
    weights = _normalized_weights(ctx, coefficients)
    direct = sum(c * eval_gegenbauer(k, 1.5, 1.0) for k, c in enumerate(coefficients))
    assert math.isclose(weights.sum(), direct, rel_tol=1e-12)
    assert math.isclose(_eval_g(ctx, weights, 1.0)[0], direct, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# exact roots: every route must return the original bisection's float
# ---------------------------------------------------------------------------


def _reference_largest_root(n, k):
    # the original Sturm bisection over numpy scalars, kept verbatim as the
    # definition of the roots (the CSV prints repr(acos(root)))
    if k == 1:
        return 0.0
    a = n / 2.0 - 1.0
    j = np.arange(2.0, k)
    b2 = np.empty(k - 1)
    b2[0] = 1.0 / (2.0 * (1.0 + a))
    b2[1:] = j * (j + 2 * a - 1) / (4 * (j + a - 1) * (j + a))

    def count_below(sigma: float) -> int:
        # Sturm count of eigenvalues below sigma (LDL^T sign pattern)
        cnt = 0
        d = -sigma
        if d < 0:
            cnt += 1
        for bb in b2:
            if d == 0.0:
                d = -1e-300
            d = -sigma - bb / d
            if d < 0:
                cnt += 1
        return cnt

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if count_below(mid) >= k:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14:
            break
    assert hi - lo <= 1e-12
    return 0.5 * (lo + hi)


EXACT_DEGREES = range(1, 91)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 24, 101, 400, 800, 801])
def test_roots_bit_identical_to_bisection(n):
    ref = [_reference_largest_root(n, k) for k in EXACT_DEGREES]
    ctx = GegenbauerContext(n)
    assert ctx.largest_roots(EXACT_DEGREES[-1]) == ref  # extrapolation + Newton from k = 5 on
    assert [ctx.largest_root(k) for k in EXACT_DEGREES] == ref  # bisection from k = 5 on


def test_closed_form_starts_need_no_bisection(monkeypatch):
    # degrees 2 to 4 start from the biquadratic's larger root in any order
    def no_bisection(*args):
        raise AssertionError("bisection ran")

    monkeypatch.setattr(orthopoly, "_bisect_largest", no_bisection)
    for n in (2, 3, 4, 5, 8, 24, 101, 400, 800, 801):
        ctx = GegenbauerContext(n)
        assert [ctx.largest_root(k) for k in (4, 3, 2)] == [
            _reference_largest_root(n, k) for k in (4, 3, 2)
        ]


def _reference_largest_roots(ns, k):
    # _reference_largest_root with one numpy lane per dimension: every lane
    # halves [0, 1] in step, so all stop after the same 47 halvings
    a = np.asarray(ns, dtype=float) / 2.0 - 1.0
    j = np.arange(2.0, k)[:, None]
    b2 = np.empty((k - 1, a.size))
    b2[0] = 1.0 / (2.0 * (1.0 + a))
    b2[1:] = j * (j + 2 * a - 1) / (4 * (j + a - 1) * (j + a))

    def count_below(sigma):
        d = -sigma
        cnt = (d < 0).astype(int)
        for bb in b2:
            d = np.where(d == 0.0, -1e-300, d)
            d = -sigma - bb / d
            cnt += d < 0
        return cnt

    lo, hi = np.zeros(a.size), np.ones(a.size)
    while hi[0] - lo[0] > 1e-14:
        mid = 0.5 * (lo + hi)
        above = count_below(mid) >= k
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return (0.5 * (lo + hi)).tolist()


# the contexts of `table --dims 4,8,..,800`: n for cz, n + 1 for kl
TABLE_CONTEXTS = sorted({n for n in range(4, 801, 4)} | {n + 1 for n in range(4, 801, 4)})


def test_lane_reference_is_the_scalar_reference():
    ns = [4, 5, 401, 800, 801]
    for k in (2, 3, 4, 5, 9, 31, 60):
        assert _reference_largest_roots(ns, k) == [_reference_largest_root(n, k) for n in ns]


def _scan_roots(ns, ks):
    # roots k = 2, 3, ... of each dimension in ns, one _lockstep_roots call
    # per degree from the state a k-scan carries, yielded as (k, roots)
    alpha = np.array(ns) / 2.0 - 1.0
    zero = np.zeros(alpha.size)
    below, b2 = [zero, zero, zero], np.empty((0, alpha.size))
    for k in ks:
        roots, b2 = orthopoly._lockstep_roots(alpha, k, below, b2)
        assert b2.shape[1] == alpha.size and len(b2) >= k - 1
        below = [roots, *below[:2]]
        yield k, roots


def test_lockstep_roots_bit_identical_on_table_contexts(monkeypatch):
    # every lane of every degree up to 60 is found in lockstep from the
    # carried state, none by bisection, and some lanes confirm a cell next
    # to their Newton iterate
    def no_bisection(*args):
        raise AssertionError("bisection ran")

    walked = []
    confirm = orthopoly._confirm_cells

    def recording(b2, k, x):
        roots = confirm(b2, k, x)
        walked.append(int(np.sum(np.floor(np.ldexp(x, 47)) != np.floor(np.ldexp(roots, 47)))))
        return roots

    monkeypatch.setattr(orthopoly, "_bisect_largest", no_bisection)
    monkeypatch.setattr(orthopoly, "_confirm_cells", recording)
    for k, roots in _scan_roots(TABLE_CONTEXTS, range(2, 61)):
        assert roots.tolist() == _reference_largest_roots(TABLE_CONTEXTS, k), k
    assert len(walked) == 59 and sum(walked) > 0


def test_lockstep_lanes_fall_back_to_the_scalar_route(monkeypatch):
    # a lane with a NaN start bisects, a repeated alpha gives equal roots,
    # and a single lane goes to _root_near on floats, NaN start or not
    bisected, near = [], []
    bisect, root_near = orthopoly._bisect_largest, orthopoly._root_near

    def counted_bisect(b2, k):
        bisected.append(k)
        return bisect(b2, k)

    def counted_near(b2, k, x):
        near.append((type(b2), type(x)))
        return root_near(b2, k, x)

    monkeypatch.setattr(orthopoly, "_bisect_largest", counted_bisect)
    monkeypatch.setattr(orthopoly, "_root_near", counted_near)
    ns, k = [3, 17, 200, 6, 17, 3], 30
    below = np.array([_reference_largest_roots(ns, k - j) for j in (1, 2, 3)])
    below[:, 3] = math.nan  # n = 6 has no roots below k
    roots, b2 = orthopoly._lockstep_roots(np.array(ns) / 2.0 - 1.0, k, below, np.empty((0, 6)))
    assert roots.tolist() == [_reference_largest_root(n, k) for n in ns]
    assert bisected == [k] and near == [] and b2.shape == (k - 1, 6)
    assert [got for _, got in _scan_roots([9], range(2, 31))] == [
        [_reference_largest_root(9, k)] for k in range(2, 31)]
    assert near == [(list, float)] * 29 and bisected == [k]
    lone = orthopoly._lockstep_roots(np.array([2.0]), k, below[:, 3:4], np.empty((0, 1)))[0]
    assert lone.tolist() == [_reference_largest_root(6, k)] and bisected == [k, k]


def test_scan_creates_no_context_and_caches_no_root(monkeypatch):
    # the k-scan runs on lane arrays alone: it creates no context, hands
    # _lockstep_roots float alphas, and each record is its one-lane call's,
    # at the reference root; kl at n and cz at n + 1 share a dimension, and
    # a lane given twice shares its own
    lanes = [(n, m) for n in range(3, 60, 4) for m in ("kl", "cz")]
    lanes += [(n + 1, "cz") for n in range(3, 60, 4)] + [(30, "kl"), (200, "kl"), (30, "kl")]
    alphas = []
    find = eb._lockstep_roots

    def recording(alpha, k, below, b2):
        alphas.append(alpha)
        return find(alpha, k, below, b2)

    def no_context(self, n):
        raise AssertionError(f"context created at n={n}")

    monkeypatch.setattr(GegenbauerContext, "__init__", no_context)
    monkeypatch.setattr(eb, "_lockstep_roots", recording)
    records = eb._scan_k(lanes)
    assert alphas and all(a.dtype == np.float64 for a in alphas)
    assert records == [eb._scan_k([lane])[0] for lane in lanes]  # diagnostics included
    for (n, m), rec in zip(lanes, records):
        t = _reference_largest_root(n + (m == "kl"), rec.k_star)
        assert rec.theta_star == math.acos(t)


@pytest.mark.parametrize("n", [2, 5, 24, 801])
def test_first_degree_reaching_is_the_root_test(monkeypatch, n):
    # at each root, in its cell on either side of the midpoint, and on the
    # cell's edges, the Sturm-count search gives the least degree whose
    # root reaches x, without a root
    roots = GegenbauerContext(n).largest_roots(81)

    def no_root(*args):
        raise AssertionError("a root was found")

    monkeypatch.setattr(orthopoly, "_root_near", no_root)
    monkeypatch.setattr(orthopoly, "_bisect_largest", no_root)
    ctx = GegenbauerContext(n)
    for t in roots[1:-1]:
        for x in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0), t - 2.0**-48, t + 2.0**-48):
            want = next(k for k in range(2, 82) if roots[k - 1] >= x)
            assert ctx.first_degree_reaching(x) == want, x


def test_first_degree_reaching_rejects_x_off_the_root_range():
    # a non-finite x, or one past [-1, 1] where ldexp overflows, is named
    ctx = GegenbauerContext(5)
    for x in (math.nan, math.inf, -math.inf, 1e300, -1e300, math.nextafter(1.0, 2.0)):
        with pytest.raises(ValueError, match=re.escape(f"x = {x!r}")):
            ctx.first_degree_reaching(x)
    assert ctx.first_degree_reaching(-1.0) == 2
    assert ctx.first_degree_reaching(1.0) is None


@pytest.mark.parametrize("n", [2, 5, 24, 801])
def test_largest_roots_walk_is_the_reference_without_bisection(monkeypatch, n):
    # each degree past 4 starts from the three roots below it, so the walk
    # confirms its cells by Newton and Sturm counts and bisects none, also
    # near 1, where Newton's stop rule scales with 1 - x
    bisected = []
    bisect = orthopoly._bisect_largest

    def counted(b2, k):
        bisected.append(k)
        return bisect(b2, k)

    monkeypatch.setattr(orthopoly, "_bisect_largest", counted)
    assert GegenbauerContext(n).largest_roots(90) == [
        _reference_largest_root(n, k) for k in range(1, 91)]
    assert bisected == []
    assert GegenbauerContext(n).largest_roots(1) == [0.0]
    with pytest.raises(ValueError, match="kmax >= 1"):
        GegenbauerContext(n).largest_roots(0)
    with pytest.raises(ValueError, match="degree cap"):
        GegenbauerContext(n).largest_roots(DEGREE_CAP + 1)


def test_largest_roots_to_degree_200_bisect_none(monkeypatch):
    # with a fixed 1e-8 stop, Newton's last step left the iterate cells off
    # from degree 80, 94, 104, 112 and 131 on at these n, and those bisected
    def no_bisection(*args):
        raise AssertionError("bisection ran")

    monkeypatch.setattr(orthopoly, "_bisect_largest", no_bisection)
    for n in (2, 3, 4, 5, 8):
        assert len(GegenbauerContext(n).largest_roots(200)) == 200


@pytest.mark.parametrize("n, kmax", [(5000, 406), (20000, 300), (100_000, 300)])
def test_large_n_walks_bisect_none(monkeypatch, n, kmax):
    # at large n Newton stops some iterates cells off their root's cell;
    # one more step and cell test find it, where these walks bisected 54,
    # 85 and 135 degrees when the walk reached two cells either way
    def no_bisection(*args):
        raise AssertionError("bisection ran")

    monkeypatch.setattr(orthopoly, "_bisect_largest", no_bisection)
    roots = GegenbauerContext(n).largest_roots(kmax)
    assert len(roots) == kmax
    for k in (2, 5, 24, 150, kmax):
        assert roots[k - 1] == _reference_largest_root(n, k), k


def _shifted_iterates(root, shifts):
    # per shift s, three iterates in the cell s cells above the root's: its
    # lower edge, its midpoint and the float below its upper edge
    cell = math.floor(math.ldexp(root, 47))
    return [(s, x) for s in shifts for x in (
        math.ldexp(cell + s, -47), math.ldexp(2 * (cell + s) + 1, -48),
        math.nextafter(math.ldexp(cell + s + 1, -47), 0.0))]


@pytest.mark.parametrize("n", [5, 24, 401, 801])
def test_cell_tests_decide_their_windows(monkeypatch, n):
    # an iterate s cells above its root's cell: one Sturm pass of the lane
    # test finds the root for s = 0, 1, 2 and reads NaN otherwise, the
    # scalar test finds it for s = 0, 1 and gives None otherwise, and
    # neither bisects; a miss that Newton does not mend bisects to the root
    bisected, passes = [], []
    bisect, count = orthopoly._bisect_largest, orthopoly._count_below_lanes

    def counted_bisect(b2, k):
        bisected.append(k)
        return bisect(b2, k)

    def counted_pass(b2, sigma):
        passes.append(sigma.shape)
        return count(b2, sigma)

    monkeypatch.setattr(orthopoly, "_bisect_largest", counted_bisect)
    monkeypatch.setattr(orthopoly, "_count_below_lanes", counted_pass)
    for k in (5, 20, 60):
        bisected.clear()
        passes.clear()
        root = _reference_largest_root(n, k)
        b2 = orthopoly._squared_offdiag(n / 2.0 - 1.0, k - 1)
        pairs = _shifted_iterates(root, range(-3, 5))
        xs = np.array([x for _, x in pairs])
        lanes = np.repeat(b2[:, None], xs.size, axis=1)
        got = orthopoly._confirm_cells(lanes, k, xs)
        assert passes == [(4, xs.size)]
        for (s, _), lane in zip(pairs, got.tolist()):
            assert lane == root if s in (0, 1, 2) else math.isnan(lane), (k, s)
        for s, x in pairs:
            want = root if s in (0, 1) else None
            assert orthopoly._confirm_cell(b2.tolist(), k, x) == want, (k, s)
        assert bisected == []

        # Newton held still: a lane or a lone iterate outside the window
        # bisects, and only those
        missed = sum(s not in (0, 1, 2) for s, _ in pairs)
        with monkeypatch.context() as still:
            still.setattr(orthopoly, "_polish_lanes", lambda b2, k, x: x)
            still.setattr(orthopoly, "_newton_step", lambda b2, x: 0.0)
            alpha = np.full(xs.size, n / 2.0 - 1.0)
            roots, _ = orthopoly._lockstep_roots(alpha, k, np.array([xs, xs, xs]), lanes)
            assert roots.tolist() == [root] * xs.size and len(bisected) == missed
            for s, x in pairs:
                assert orthopoly._root_near(b2.tolist(), k, x) == root
            assert len(bisected) == missed + sum(s not in (0, 1) for s, _ in pairs)
        bisected.clear()

        # with no Newton step before the test, the retry's one step finds
        # the root of every iterate the test misses
        with monkeypatch.context() as cold:
            cold.setattr(orthopoly, "_NEWTON_STEPS", 0)
            for s, x in pairs:
                assert orthopoly._root_near(b2.tolist(), k, x) == root, (k, s)
        assert bisected == []


def test_sturm_count_takes_a_zero_pivot_as_negative_on_both_routes():
    # at sigma = 1/2 the second pivot is -1/2 + 0.25/0.5 = 0 exactly; taken
    # as -1e-300, the next one is about +1e299 and not counted
    assert orthopoly._count_below([0.25, 0.1], 0.5) == 1
    lanes = np.array([[0.25, 0.25, 0.3], [0.1, 0.1, 0.1]])
    assert orthopoly._count_below_lanes(lanes, np.array([0.5, 0.5, 0.5])).tolist() == [1, 1, 2]


def test_lane_sturm_count_is_the_scalar_count():
    # random off-diagonals, sigma on cell edges, and an exact zero pivot
    # forced into every third lane: the lane count is _count_below's, lane
    # by lane, for one sigma per lane and for three
    rng = np.random.default_rng(29)
    m, size = 40, 300
    b2 = rng.uniform(0.05, 0.3, size=(m, size))
    sigma = np.ldexp(np.floor(np.ldexp(rng.uniform(0.0, 1.0, size), 47)), -47)
    zeros = 0
    for lane in range(0, size, 3):
        s, d = float(sigma[lane]), -float(sigma[lane])
        i = int(rng.integers(0, m))
        for bb in b2[:i, lane].tolist():
            d = -s - bb / (d if d != 0.0 else -1e-300)
        if d < 0.0:  # pick b2_i so that pivot i + 1 is exactly 0
            b = -s * d
            for cand in (b, math.nextafter(b, 0.0), math.nextafter(b, 1.0)):
                if -s - cand / d == 0.0:
                    b2[i, lane] = cand
                    zeros += 1
                    break
    assert zeros > 40

    def scalar(sig):
        return [orthopoly._count_below(b2[:, j].tolist(), float(sig[j])) for j in range(size)]

    assert orthopoly._count_below_lanes(b2, sigma).tolist() == scalar(sigma)
    edges = sigma + np.ldexp([[-1.0], [0.0], [1.0]], -47)
    assert orthopoly._count_below_lanes(b2, edges).tolist() == [scalar(e) for e in edges]
