import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from packbounds import cli
from packbounds import euclid_bounds as eb
from packbounds import spherical_lp as slp
from packbounds.specfun import IntegrandError

# sha256 of the seed's CSV for this table; the benchmark pins the same bytes
TABLE_4_40_SHA256 = "cc094244ad2f79d2c1d8b059d016bdfd0fde17f8ad473b6a8da01645ee91d9e5"
TABLE_ARGV = [
    "table",
    "--dims",
    ",".join(str(n) for n in range(4, 41, 4)),
    "--methods",
    "rogers,levenshtein,kl,cz",
    "--format",
    "csv",
]


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_table_csv_bytes_pinned_and_repeatable(capsys):
    code, first, err = _run(capsys, TABLE_ARGV)
    assert code == 0 and err == ""
    assert hashlib.sha256(first.encode()).hexdigest() == TABLE_4_40_SHA256
    eb._CTX_CACHE.clear()  # a cold second run must give the same bytes
    code, second, _ = _run(capsys, TABLE_ARGV)
    assert code == 0 and second == first


# sha256 of the 4..800 table and of the 4..800 crossover json: the k-scans
# run hundreds of dimensions in lockstep there (bench/reference.json pins
# the same table bytes)
TABLE_4_800_SHA256 = "763103faa1f26d1a0b37347e7e121283a1429713023d3aeb2311e58c135f3bb2"
CROSSOVER_4_800_SHA256 = "5dd61b7cfce792ff9f4cf5223d8586a853a569f3ba6ffe82d187cffff9ea4925"


def test_table_4_800_csv_bytes_pinned(capsys):
    dims = ",".join(str(n) for n in range(4, 801, 4))
    code, out, err = _run(capsys, ["table", "--dims", dims, "--format", "csv"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_4_800_SHA256


def test_crossover_4_800_json_bytes_pinned(capsys):
    code, out, err = _run(capsys, ["crossover", "--lo", "4", "--hi", "800", "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CROSSOVER_4_800_SHA256


# the messages name the quantity the user set, not the helper that would
# fail on it; a refined bound at r needs vol(B_R) at R(r, pi/3) > r
REJECTION_NAMES = {
    "hyperbolic --n 300 --r 1 --refined": "refined hyperbolic bounds require n <= 200, got n = 300",
    "overlap --n 300 --r 1 --R 2": "overlap_finite requires 2 <= n <= 200, got n = 300",
    "hyperbolic --n 8 --r 60 --refined": "r = 60.0 gives R = 60.6931 at theta = 1.0472",
    "hyperbolic --n 8 --r 49.9 --refined": "r = 49.9 gives R = 50.5931 at theta = 1.0472",
    "overlap --n 3 --r 1 --R 100": "overlap_finite requires 1e-300 <= R <= 50",
    "overlap --n 5 --r 1e-310 --R 1e-310": "overlap_finite requires 1e-300 <= R <= 50",
    "hyperbolic --n 3 --r 1e-310 --refined": "refined hyperbolic bounds require r >= 1e-300",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--dims", "1"],
        ["table", "--dims", "900"],
        ["table", "--dims", "8", "--methods", "lp_transfer"],
        ["table", "--dims", "8", "--methods", "no_such_method"],
        ["crossover", "--lo", "2", "--hi", "9"],
        ["lp", "--n", "8", "--theta", "1.0471975511965976", "--degree", "0"],
        ["overlap", "--n", "3", "--r", "1", "--R", "2", "--samples", "0", "--format", "json"],
        ["overlap", "--n", "3", "--r", "1", "--R", "2", "--samples", "20000"],
        ["overlap", "--n", "3", "--r", "1", "--R", "2", "--seed", "5", "--format", "json"],
        ["overlap", "--n", "3", "--r", "1", "--R", "2", "--seed", "5"],
        ["hyperbolic", "--n", "8", "--r", "nan"],
        ["hyperbolic", "--n", "8", "--r", "inf"],
        ["hyperbolic", "--n", "8", "--r", "nan", "--theta", "1.2"],
        ["overlap", "--n", "3", "--r", "nan", "--R", "2"],
        ["overlap", "--n", "3", "--r", "1", "--R", "nan"],
        ["overlap", "--n", "3", "--r", "1", "--R", "inf"],
        ["overlap", "--n", "3", "--r", "inf", "--R", "2", "--format", "json"],
        ["overlap", "--n", "3", "--r", "1", "--R", "100"],
        ["hyperbolic", "--n", "300", "--r", "1", "--refined"],
        ["overlap", "--n", "300", "--r", "1", "--R", "2"],
        ["hyperbolic", "--n", "8", "--r", "60", "--refined"],
        ["hyperbolic", "--n", "8", "--r", "49.9", "--refined"],
        ["overlap", "--n", "201", "--r", "1", "--R", "2", "--samples", "20000", "--format", "json"],
        ["overlap", "--n", "5", "--r", "1e-310", "--R", "1e-310"],
        ["hyperbolic", "--n", "3", "--r", "1e-310", "--refined"],
    ],
)
def test_invalid_configuration_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "hyp_ball_volume" not in err
    assert REJECTION_NAMES.get(" ".join(argv), "") in err


def test_coarse_hyperbolic_past_the_refined_domain(capsys):
    # only the refined bound needs vol(B_R), so n > 200 still prints its row
    code, out, err = _run(capsys, ["hyperbolic", "--n", "300", "--r", "1"])
    assert code == 0 and err == ""
    assert out.splitlines()[1].split()[:2] == ["300", "hyp_coarse"]


def test_integrand_error_stays_exit_3(capsys, monkeypatch):
    # IntegrandError is a ValueError; it must not fall into the exit-2 clause
    def broken(n):
        raise IntegrandError("NaN in integrand")

    monkeypatch.setattr(eb, "rogers_bound", broken)
    code, out, err = _run(capsys, ["table", "--dims", "8", "--methods", "rogers"])
    assert code == 3
    assert json.loads(err) == {"error": "IntegrandError", "message": "NaN in integrand"}


def test_crossover_rows_match_best_method(capsys):
    code, out, _ = _run(capsys, ["crossover", "--lo", "4", "--hi", "40", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "best_method"]
    assert [(int(n), m) for n, m in rows[1:]] == [
        (n, eb.best_method(n)) for n in range(4, 41)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--dims", "8"],
        ["table", "--dims", "8", "--rel-tol", "1e-3"],
        ["table", "--dims", "8", "--config", "overrides.txt"],
        ["table", "--dims", "8", "--seed", "1"],
        ["table"],
        ["table", "--dims", ""],
        ["lp", "--n", "8", "--theta", "1.0471975511965976", "--format", "json"],
        ["rate", "--format", "csv"],
        ["overlap", "--n", "4", "--r", "1", "--R", "2", "--format", "csv"],
        ["table", "--dims", "8", "--methods", ","],
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_output_file_gets_the_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "rate.json"
    code, out, err = _run(capsys, ["rate", "--output", str(path)])
    assert code == 0 and out == "" and err == ""
    assert path.read_text() == '{"rate_log2": -0.5990557668603105, "theta_star": 1.0995124125315596}\n'


def test_unwritable_output_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, ["table", "--dims", "8", "--output", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert not path.parent.exists()


# sha256 of the 30 hyperbolic json rows n in {2, 8, 24, 100, 200}, r in
# {0.5, 1, 2}, coarse then refined, with the refined volume ratio formed as
# one ratio of int_0 sinh^(n-1)
HYPERBOLIC_GRID_SHA256 = "b5c5f8b549db1b29ab1b74dddff7a0b4552b65dc6e6eb0aaaedd9f2563f00599"


def test_hyperbolic_rows_pinned(capsys):
    out = []
    for n in (2, 8, 24, 100, 200):
        for r in ("0.5", "1", "2"):
            for extra in ([], ["--refined"]):
                argv = ["hyperbolic", "--n", str(n), "--r", r, "--format", "json", *extra]
                code, text, err = _run(capsys, argv)
                assert code == 0 and err == ""
                out.append(text)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == HYPERBOLIC_GRID_SHA256


def test_refined_bound_does_not_drift_at_tiny_r(capsys):
    # vol(B_r)/vol(B_R) tends to sin^n(theta/2) as r -> 0, though each
    # volume's log reaches n ln r = -1.4e5
    logs = []
    for r in ("1e-10", "1e-100", "1e-200", "1e-300"):
        argv = ["hyperbolic", "--n", "200", "--r", r, "--refined", "--format", "json"]
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        logs.append(json.loads(out)[0]["value_log10"])
    assert max(logs) - min(logs) <= 4e-15 * abs(logs[0])


@pytest.mark.parametrize("r", ["710.2", "1000"])
def test_hyperbolic_radius_past_sinh_overflow(capsys, r):
    # sinh r / sin(theta/2) overflows above r ~ 709.8; the coarse bound does
    # not depend on r
    code, out, err = _run(capsys, ["hyperbolic", "--n", "8", "--r", r])
    assert code == 0 and err == ""
    assert out == _run(capsys, ["hyperbolic", "--n", "8", "--r", "700"])[1]


def test_rate_bytes_pinned(capsys):
    code, out, err = _run(capsys, ["rate"])
    assert code == 0 and err == ""
    assert out == '{"rate_log2": -0.5990557668603105, "theta_star": 1.0995124125315596}\n'


@pytest.mark.parametrize(
    "n, r, R, reference",
    [
        (2, "1", "2", 0.5997449840416943),
        (4, "2", "8", 0.1346271485473766),
        (10, "0.5", "3", 0.46500140385683136),
        (50, "2", "8", 8.62748328069956e-11),
    ],
)
def test_overlap_json(capsys, n, r, R, reference):
    code, out, err = _run(capsys, ["overlap", "--n", str(n), "--r", r, "--R", R, "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["n"], doc["r"], doc["R"]) == (n, float(r), float(R))
    assert 0.0 <= doc["finite"] <= 1.0
    assert doc["finite"] == pytest.approx(reference, rel=1e-8, abs=0)
    assert 0.0 < doc["limit"] <= 1.0


def test_overlap_limit_past_exp_overflow(capsys):
    # exp(710) overflows; the limit is then B(e^-r; 1, 1) / B(1/2; 1, 1)
    code, out, err = _run(capsys, ["overlap", "--n", "3", "--r", "710", "--R", "2",
                                   "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["finite"] == 0.0
    assert doc["limit"] == pytest.approx(2.0 * math.exp(-710.0), rel=1e-12)


def test_overlap_past_sinh_product_underflow(capsys):
    # sinh s sinh r underflows to 0 at R r < 1e-308; so small a ball is
    # Euclidean, and the overlap is the lens share I_(1-q^2)(3/2, 1/2),
    # q = r/(2R), whose 40-digit mpmath value is 0.80973270233821380...
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["overlap", "--n", "2", "--r", "3e-181", "--R", "1e-180"])
    assert code == 0 and err == ""
    assert out == "0.8097327023382138\n"
    assert float(out) == pytest.approx(0.8097327023382138, rel=1e-15)


def test_overlap_monte_carlo_past_n4(capsys):
    code, out, err = _run(capsys, ["overlap", "--n", "10", "--r", "1", "--R", "2",
                                   "--samples", "20000", "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert math.isfinite(doc["mc_mean"]) and doc["mc_samples"] == 20000
    assert abs(doc["mc_mean"] - doc["finite"]) <= 4.0 * doc["mc_stderr"]


# sha256 of the default (text) ``overlap`` stdout, normalized by
# int_0^R sinh^(n-1) from the recurrence and series
OVERLAP_TEXT_SHA256 = {
    ("3", "1", "2"): "a2cddbd34b902278eb66a966df3d7eef5db5d5bac65001a54685298cff99e4c3",
    ("10", "0.5", "3"): "ab06a1640434c6a6475c466754dc099ca33bef9374d11a0a34412bdf860d7b5d",
}


@pytest.mark.parametrize("n, r, R", sorted(OVERLAP_TEXT_SHA256))
def test_overlap_text_bytes_pinned(capsys, n, r, R):
    code, out, err = _run(capsys, ["overlap", "--n", n, "--r", r, "--R", R])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == OVERLAP_TEXT_SHA256[(n, r, R)]


THETA = "1.0471975511965976"  # pi/3, as the benchmark types it

# sha256 of ``lp --n N --theta pi/3 --degree D`` stdout, with the sign check
# taken over the verification grid and the critical points of g; these
# certificates change when the maximum that check finds moves by a bit
LP_SHA256 = {
    (3, 20): "4eb1f811d0ec9c5b0e7e0be5d09c95c0d27c40bba8eb27763aabdc989d7a9647",
    (8, 10): "fdfab5d8d33078a73ef43a18796591ecd22475c5c829fca6fb48e5299529369f",
    (16, 10): "c20460573b94a2f619efe968b8d53b669c0029248301d2e3419c75eadeeffdfe",
    (24, 10): "538d58f51c22b221697324ef19e502a4411977b98847408f7009ff7e8e383ff3",
    (32, 20): "91cbdd333178171d9030541d87984cfe760fbe4b8512efa15ed74e1caa15dfa7",
}


def _lp(capsys, n, degree):
    return _run(capsys, ["lp", "--n", str(n), "--theta", THETA, "--degree", str(degree)])


@pytest.mark.parametrize("n, degree", sorted(LP_SHA256))
def test_lp_bytes_pinned(capsys, n, degree):
    code, out, err = _lp(capsys, n, degree)
    assert code == 0 and err == ""
    assert json.loads(out)["certified"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == LP_SHA256[(n, degree)]


# One sha256 over "<exit code>\n<stdout>" of the benchmark's 44 ``lp`` ops,
# in order: 35 certificates and 9 exit-3 failures
LP_SWEEP_NS = (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
LP_SWEEP_DEGREES = (10, 20, 30, 40)
LP_SWEEP_SHA256 = "da69657e6d722855f47126941f617eee18d7752598353af05d17d22cca5b9a09"


def test_lp_sweep_bytes_pinned(capsys):
    digest = hashlib.sha256()
    codes = []
    for n in LP_SWEEP_NS:
        for degree in LP_SWEEP_DEGREES:
            code, out, _ = _lp(capsys, n, degree)
            codes.append(code)
            digest.update(f"{code}\n{out}".encode())
    assert (codes.count(0), codes.count(3)) == (35, 9)
    assert digest.hexdigest() == LP_SWEEP_SHA256


# sha256 of the sorted-key json of ``transfer_g_to_f`` for the certificate
# that ``lp --n 4 --theta pi/3 --degree 10`` prints.  Re-pinned when the
# radial integral over [R, 2R] moved from tanh-sinh to Gauss-Legendre after
# rho = 2R - R s^2: only ``integral_f`` changed, 6234.181826177337 ->
# 6234.1818261905355 (2.1e-12 relative; the exact vol(B_R)^2 c_0 is within
# 2.3e-12 of the new value)
TRANSFER_4_SHA256 = "614aee82e2ee234ca76d78ec13eb5c92b605254276cc123f96fa27448c9ffd09"


def test_transfer_probe_pinned(capsys):
    code, out, _ = _lp(capsys, 4, 10)
    assert code == 0
    cert = slp.certificate_from_json(out)
    probe = slp.transfer_g_to_f(cert, slp.LPProblem(n=4, theta=cert.theta, degree=10))
    text = json.dumps(dataclasses.asdict(probe), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSFER_4_SHA256


def test_lp_simplex_failure_exits_3(capsys):
    # the dense simplex finds the dual unbounded; scipy's HiGHS solver finds
    # this discretized LP infeasible, so round-off is not the only cause
    code, out, err = _lp(capsys, 32, 10)
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "LPInfeasibleError"
    assert "n=32, degree=10" in doc["message"] and "round-off" in doc["message"]
    assert "setup is broken" not in doc["message"]


# Each case runs in a fresh interpreter: whether ``scipy.special`` is in
# ``sys.modules`` after ``import packbounds.cli``, and after ``main(argv)``.
COLD_START_PROBE = """
import contextlib, io, json, sys
import packbounds.cli
after_import = "scipy.special" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = packbounds.cli.main(sys.argv[1:])
print(json.dumps([after_import, "scipy.special" in sys.modules, code]))
"""


@pytest.mark.parametrize(
    "argv, loads_special",
    [
        (["lp", "--n", "8", "--theta", THETA, "--degree", "10"], False),
        (["hyperbolic", "--n", "24", "--r", "1", "--refined"], False),
        (["rate"], False),
        (["table", "--dims", "8", "--methods", "levenshtein"], True),
    ],
)
def test_scipy_special_loaded_only_on_first_use(argv, loads_special):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == [False, loads_special, 0]
