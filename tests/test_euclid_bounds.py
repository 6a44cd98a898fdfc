import math

import numpy as np
import pytest

from packbounds import cli, orthopoly
from packbounds import euclid_bounds as eb
from packbounds.cli import render_round_up
from packbounds.euclid_bounds import (
    _code_bound_log,
    _code_objectives,
    best_method,
    cz_bound,
    kl_bound,
    kl_spherical_code_bound,
    levenshtein_bound,
    optimize_asymptotic_rate,
    rogers_bound,
)
from packbounds.orthopoly import GegenbauerContext
from packbounds.specfun import IntegrandError, LogScaled, NonConvergenceError, integrate

# golden values, rounded up to 4 significant digits
GOLDEN_SPOT = {
    ("rogers", 12): "8.759e-2",
    ("rogers", 48): "1.128e-6",
    ("rogers", 600): "1.090e-88",
    ("levenshtein", 12): "1.065e-1",
    ("levenshtein", 600): "5.847e-94",
    ("kl", 12): "1.038e0",
    ("kl", 120): "2.452e-17",
    ("kl", 240): "1.542e-37",
    ("cz", 12): "9.666e-1",
    ("cz", 120): "2.051e-17",
    ("cz", 600): "5.036e-100",
}

_FUNCS = {
    "rogers": rogers_bound,
    "levenshtein": levenshtein_bound,
    "kl": kl_bound,
    "cz": cz_bound,
}


@pytest.mark.parametrize("method,n", sorted(GOLDEN_SPOT))
def test_golden_spot_values(method, n):
    rec = _FUNCS[method](n)
    assert render_round_up(rec.value, 4) == GOLDEN_SPOT[(method, n)]


def test_levenshtein_dimension_one_sentinel():
    rec = levenshtein_bound(1)
    assert abs(rec.value.log_value) < 1e-12


def test_rogers_imaginary_residual_small():
    for n in (2, 7, 12, 48, 129, 600):
        rec = rogers_bound(n)
        assert rec.diagnostics["imag_residual"] <= 1e-8


def test_rogers_domain():
    with pytest.raises(ValueError):
        rogers_bound(1)
    with pytest.raises(ValueError):
        rogers_bound(1001)


@pytest.mark.parametrize("n", [2, 48, 600])
def test_rogers_evaluates_its_peak_once(monkeypatch, n):
    # the tail search takes |f(0)| = 1 from the scaling instead of calling f
    calls = []

    def counted(z):
        calls.append(bool(np.any(np.imag(z) == 0.0)))
        return erfcx(z)

    erfcx = eb.scaled_erfc_complex
    monkeypatch.setattr(eb, "scaled_erfc_complex", counted)
    rogers_bound(n)
    assert calls.count(True) == 1


def test_rogers_non_finite_peak_is_an_integrand_error(monkeypatch):
    monkeypatch.setattr(eb, "scaled_erfc_complex", lambda z: np.full_like(z, np.nan, dtype=complex))
    with pytest.raises(IntegrandError):
        rogers_bound(8)


# ---------------------------------------------------------------------------
# spherical-code bound
# ---------------------------------------------------------------------------


def test_code_bound_right_angle_n4():
    b, k = kl_spherical_code_bound(4, math.pi / 2)
    assert k == 1
    assert math.isclose(b.to_float(), 24.0, rel_tol=1e-12)


def test_code_bound_pi_third_n4():
    b, k = kl_spherical_code_bound(4, math.pi / 3)
    assert k == 2
    expected = 24.0 / (1.0 - 1.0 / math.sqrt(2.0))
    assert math.isclose(b.to_float(), expected, rel_tol=1e-12)


def test_code_bound_pi_third_n3():
    b, k = kl_spherical_code_bound(3, math.pi / 3)
    assert k == 2
    expected = 12.0 / (1.0 - math.sqrt(3.0 / 5.0))
    assert math.isclose(b.to_float(), expected, rel_tol=1e-12)


def test_code_bound_domain():
    with pytest.raises(ValueError, match="n >= 2"):
        kl_spherical_code_bound(1, math.pi / 2)
    for theta in (0.0, -1.0, 3.5, math.nan):
        with pytest.raises(ValueError, match="theta must lie in"):
            kl_spherical_code_bound(4, theta)


def _roots_reaching(n, x):
    # t_1, t_2, ... of dimension n from one ascending walk, up to the first
    # root that reaches x and at least one more
    kmax = 8
    while (roots := GegenbauerContext(n).largest_roots(kmax))[-2] < x:
        kmax *= 2
    return roots


def _walked_code_bound(n, theta):
    # the k walk, one root per degree, that the Sturm-count search replaced
    # (without its degree cap)
    c = math.cos(theta) - 1e-12
    roots = _roots_reaching(n, c)
    k = 1
    while roots[k - 1] < c:
        k += 1
    return LogScaled.from_log(_code_bound_log(n, k, roots[k])), k


@pytest.mark.parametrize("n", [2, 3, 4, 8, 24, 101, 400, 801])
def test_code_bound_search_matches_the_walk(n):
    # angles at small and large degrees, pi/2 and the root angles acos(t_k)
    # themselves, with the floats next to them
    roots = GegenbauerContext(n).largest_roots(100)
    thetas = [math.pi, 2.5, math.pi / 2, math.pi / 3, 0.5]
    for k in (2, 3, 4, 5, 6, 8, 16, 31, 32, 33, 34, 64, 65, 100):
        at = math.acos(roots[k - 1])
        thetas += [at, math.nextafter(at, 0.0), math.nextafter(at, 4.0)]
    for theta in thetas:
        assert kl_spherical_code_bound(n, theta) == _walked_code_bound(n, theta), theta


def test_code_bound_at_small_angles_finds_one_root_past_the_walk(monkeypatch):
    # (801, pi/62) reaches k = 7751 with the bound the old walk gave: each
    # degree probed costs one Sturm count, and t_(k+1) is the one root found
    found = []
    largest_root = GegenbauerContext.largest_root

    def counted(self, k):
        found.append(k)
        return largest_root(self, k)

    monkeypatch.setattr(GegenbauerContext, "largest_root", counted)
    bound, k = kl_spherical_code_bound(801, math.pi / 62)
    assert k == 7751
    assert math.isclose(bound.log_value, 2658.169411621708, rel_tol=1e-14)
    assert found == [k + 1]


@pytest.mark.parametrize("cap", [4, 40])
def test_code_bound_degree_cap(monkeypatch, cap):
    # a cap below k, small or large, ends the search with one message
    monkeypatch.setattr(orthopoly, "DEGREE_CAP", cap)
    with pytest.raises(NonConvergenceError, match=r"^k-search exhausted the degree cap$"):
        kl_spherical_code_bound(801, 0.05)


# ---------------------------------------------------------------------------
# k-searches
# ---------------------------------------------------------------------------


def test_k_search_certificates():
    for n in (12, 36, 120, 240, 600):
        for rec in (kl_bound(n), cz_bound(n)):
            d = rec.diagnostics
            assert d["objective_next"] is None or d["objective"] < d["objective_next"]
            if rec.k_star > 1:
                assert d["objective_prev"] > d["objective"]


def test_cz_k_star_feasible():
    for n in (8, 64, 333):
        rec = cz_bound(n)
        assert GegenbauerContext(n).largest_root(rec.k_star) <= 0.5
        # recomputing the objective at k_star reproduces the stored value
        assert math.isclose(rec.diagnostics["objective"], rec.value.log_value, rel_tol=1e-12)


def _cz_full_range_scan(n):
    # the cz scan over every k with t_(n,k) <= 1/2, kept from before cz
    # stopped at its first local minimum, on one ascending walk of the roots
    roots = _roots_reaching(n, 0.5)
    best = None
    best_k = None
    k = 1
    while roots[k - 1] <= 0.5:
        val = _code_objectives(n, k, roots[k - 1], roots[k],
                               math.lgamma(k + n - 1), math.lgamma(n - 1))
        if best is None or val < best:
            best, best_k = val, k
        k += 1
    return best, best_k, math.acos(roots[best_k - 1])


def test_cz_first_local_minimum_is_the_full_range_minimum():
    for n in range(2, 801):
        rec = cz_bound(n)
        assert (rec.value.log_value, rec.k_star, rec.theta_star) == _cz_full_range_scan(n)


def test_cz_undefined_at_one():
    with pytest.raises(ValueError):
        cz_bound(1)


@pytest.mark.parametrize("method", ["kl", "cz"])
def test_lockstep_scan_matches_single_dimension_records(method):
    # unsorted, with a repeat, over the whole domain
    dims = [800, 2, 2, 47] + list(range(3, 801, 13)) + ([1] if method == "kl" else [])
    batched = eb._scan_k([(n, method) for n in dims])
    alone = [_FUNCS[method](n) for n in dims]
    assert batched == alone  # diagnostics included


def test_mixed_scan_matches_single_dimension_records():
    # kl and cz lanes in one scan, unsorted and with repeats; over 2..60 the
    # kl lane at n and the cz lane at n + 1 share one family
    lanes = [(800, "cz"), (1, "kl"), (47, "kl"), (47, "cz"), (2, "cz"), (800, "kl"),
             (47, "kl")] + [(n, m) for n in range(2, 61) for m in ("kl", "cz")]
    mixed = eb._scan_k(lanes)
    alone = [_FUNCS[m](n) for n, m in lanes]
    assert mixed == alone  # diagnostics included


def test_table_finds_each_degree_once_for_kl_and_cz(monkeypatch, capsys):
    degrees = []
    find = eb._lockstep_roots

    def counted(alpha, k, below, b2):
        degrees.append(k)
        return find(alpha, k, below, b2)

    monkeypatch.setattr(eb, "_lockstep_roots", counted)
    dims = ",".join(str(n) for n in range(4, 201, 4))
    assert cli.main(["table", "--dims", dims, "--methods", "kl,cz", "--format", "csv"]) == 0
    # one pass per degree over the kl and cz lanes together
    assert degrees == list(range(2, len(degrees) + 2))
    k_max = max(int(line.split(",")[4]) for line in capsys.readouterr().out.splitlines()[1:])
    assert len(degrees) >= k_max


def test_table_scan_reads_no_root_lane_by_lane(monkeypatch, capsys):
    # the degree loop reads its roots as arrays from _lockstep_roots,
    # never one context at a time
    calls = []
    largest_root = orthopoly.GegenbauerContext.largest_root

    def counted(self, k):
        calls.append((self.n, k))
        return largest_root(self, k)

    monkeypatch.setattr(orthopoly.GegenbauerContext, "largest_root", counted)
    dims = ",".join(str(n) for n in range(4, 201, 4))
    assert cli.main(["table", "--dims", dims, "--methods", "kl,cz", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 101
    assert calls == []


def test_warm_scan_matches_a_cold_one():
    lanes = [(n, m) for n in range(3, 400, 7) for m in ("kl", "cz")]
    cold = eb._scan_k(lanes)
    # other dimensions scanned before, and code bounds
    eb._scan_k([(n + 1, "cz") for n in range(3, 400, 14)]
               + [(n - 1, "kl") for n in range(10, 400, 14)])
    for n in range(4, 400, 21):
        kl_spherical_code_bound(n, 0.3)
    assert eb._scan_k(lanes) == cold  # diagnostics included


def test_mixed_scan_without_a_minimum_names_the_first_lane_still_scanning(monkeypatch):
    # under a degree cap of 4, kl at n = 2 stops at k = 2 (k* = 1), while cz
    # at 800 and kl at 700 still scan at k = 3, the last degree whose
    # objective the cap lets the scan read
    monkeypatch.setattr(orthopoly, "DEGREE_CAP", 4)
    monkeypatch.setattr(eb, "DEGREE_CAP", 4)
    with pytest.raises(NonConvergenceError,
                       match=r"^cz_bound k-search found no local minimum at n=800$"):
        eb._scan_k([(2, "kl"), (800, "cz"), (700, "kl")])


_LANES = {"rogers": eb._rogers_lanes, "levenshtein": eb._levenshtein_lanes}


@pytest.mark.parametrize("method, top", [("rogers", 1000), ("levenshtein", 800)])
def test_lanes_match_single_dimension_records(method, top):
    # one call over many dimensions, unsorted and with repeats, gives each
    # dimension's one-lane record bit for bit, diagnostics included
    for dims in (list(range(2, top + 1, 7)), [top, 9, 2, 9, 300, 2, 57]):
        assert _LANES[method](dims) == [_FUNCS[method](n) for n in dims]


# captured from the per-dimension quadrature that the lanes replaced
ROGERS_DIAGNOSTICS = {
    8: {"imag_residual": 5.4048051679846065e-17, "quad_error": 6.331884919334036e-12,
        "quad_nevals": 336},
    24: {"imag_residual": 7.357530433106992e-18, "quad_error": 1.1923687109380567e-11,
         "quad_nevals": 336},
    200: {"imag_residual": 7.083453672164866e-16, "quad_error": 8.560393220756687e-12,
          "quad_nevals": 432},
}


@pytest.mark.parametrize("n", sorted(ROGERS_DIAGNOSTICS))
def test_rogers_quadrature_diagnostics_pinned(n):
    # the same panels split in the same order give the same error sum
    assert rogers_bound(n).diagnostics == ROGERS_DIAGNOSTICS[n]


@pytest.mark.parametrize(
    "method,dims,message",
    [
        ("kl", [8, 801], "kl_bound requires 1 <= n <= 800"),
        ("cz", [8, 0], "cz_bound requires 1 <= n <= 800"),
        ("cz", [8, 1], "cz_bound is undefined for n = 1"),
    ],
    ids=["kl-801", "cz-0", "cz-1"],
)
def test_lockstep_scan_domain(method, dims, message):
    with pytest.raises(ValueError, match=message):
        eb._scan_k([(n, method) for n in dims])


def test_strict_improvement_and_ratio_corridor():
    cap = 1.2635**2
    for n in range(2, 129):
        kl = kl_bound(n).value.log_value
        cz = cz_bound(n).value.log_value
        ratio = math.exp(kl - cz)
        assert cz < kl, f"no strict improvement at n={n}"
        assert 1.0 < ratio < cap, f"ratio {ratio} outside corridor at n={n}"


def test_rate_corridor_at_600():
    per_dim = cz_bound(600).value.log_value / math.log(2.0) / 600.0
    assert -0.62 < per_dim < -0.50


# ---------------------------------------------------------------------------
# caps, rate, crossovers
# ---------------------------------------------------------------------------


def cap_density(n, theta, count):
    # fraction of S^(n-1) covered by `count` caps of angular radius theta/2:
    # count * int_0^(theta/2) sin^(n-2) x dx / int_0^pi sin^(n-2) x dx
    m = n - 2
    num = integrate(lambda x: np.sin(x) ** m, 0.0, theta / 2.0, rel_tol=1e-12)
    den = integrate(lambda x: np.sin(x) ** m, 0.0, math.pi, rel_tol=1e-12)
    return count * num.value / den.value


def test_cap_density_hemispheres():
    for n in (2, 3, 7, 19):
        assert cap_density(n, math.pi, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_cap_density_circle_arcs():
    assert cap_density(2, math.pi / 3, 6.0) == pytest.approx(1.0, rel=1e-12)


def test_cap_density_sphere_closed_form():
    expected = 6.0 * (1.0 - math.sqrt(2.0) / 2.0) / 2.0
    assert cap_density(3, math.pi / 2, 6.0) == pytest.approx(expected, rel=1e-12)


def test_cap_density_of_code_bound_at_most_one():
    # from n = 16 the closed-form code bound stays below the cap-packing
    # limit; at n = 8 it does not (coverage up to 3.1 at theta = 1.2), so
    # the sharper certified LP objective carries the check there
    for n in (16, 32, 64):
        for theta in (math.pi / 3, 1.2, math.pi / 2):
            bound, _ = kl_spherical_code_bound(n, theta)
            frac = cap_density(n, theta, bound.to_float())
            assert frac <= 1.0 + 1e-9


def test_cap_density_of_lp_objective_at_most_one_n8():
    from packbounds.spherical_lp import LPProblem, lp_solve_spherical

    for theta in (math.pi / 3, 1.2, math.pi / 2):
        cert = lp_solve_spherical(LPProblem(n=8, theta=theta, degree=20))
        assert cert.certified
        assert cap_density(8, theta, cert.objective) <= 1.0 + 1e-9


def test_rate_optimization():
    res = optimize_asymptotic_rate()
    assert abs(res.theta_star - 1.0995) < 1e-3
    assert abs(res.rate_log2 - (-0.5990)) < 1e-3
    assert 0 < res.theta_star <= math.pi / 2
    assert res.rate_log2 < 0


def test_rate_objective_at_right_angle():
    from packbounds.euclid_bounds import _rate_objective

    assert _rate_objective(math.pi / 2) == pytest.approx(-0.5, abs=1e-14)


def test_best_method_crossovers():
    assert best_method(50) == "rogers"
    assert best_method(100) == "levenshtein"
    assert best_method(120) == "kl"


def test_best_method_domain():
    with pytest.raises(ValueError):
        best_method(3)
    with pytest.raises(ValueError):
        best_method(801)


def test_bounds_runs_each_method_by_name():
    assert eb.METHODS == ("rogers", "levenshtein", "kl", "cz")
    for method in eb.METHODS:
        assert eb.bounds([method], [24, 8]) == {method: [_FUNCS[method](n) for n in (24, 8)]}
    with pytest.raises(ValueError, match="unknown method 'lp_transfer'"):
        eb.bounds(["lp_transfer"], [8])


def test_bounds_runs_many_methods_in_one_call():
    # keys in first-seen order, a repeated method run once
    methods = ["cz", "rogers", "kl", "cz", "levenshtein"]
    got = eb.bounds(methods, [24, 8, 24])
    assert list(got) == ["cz", "rogers", "kl", "levenshtein"]
    for method, recs in got.items():
        assert recs == [_FUNCS[method](n) for n in (24, 8, 24)]
    assert eb.bounds([], [8]) == {}
