import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from packbounds import cli
from packbounds import euclid_bounds as eb
from packbounds import spherical_lp as slp
from packbounds.specfun import IntegrandError, LogScaled

# sha256 of the 4..40 table (the seed's CSV) and of the 4..800 table, each
# stated once, in the benchmark's reference, which checks its table ops
# against the same bytes
TABLE_SHA256 = json.loads(
    (Path(__file__).parents[1] / "bench" / "reference.json").read_text())["table_sha256"]
TABLE_4_40_SHA256 = TABLE_SHA256["4:40:4"]
TABLE_4_800_SHA256 = TABLE_SHA256["4:800:4"]
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
    code, second, _ = _run(capsys, TABLE_ARGV)
    assert code == 0 and second == first


# sha256 of the 4..800 crossover json; the k-scans run hundreds of
# dimensions in lockstep there, as in the 4..800 table
CROSSOVER_4_800_SHA256 = "5dd61b7cfce792ff9f4cf5223d8586a853a569f3ba6ffe82d187cffff9ea4925"
TABLE_4_800_ARGV = ["table", "--dims", ",".join(str(n) for n in range(4, 801, 4)), "--format", "csv"]
CROSSOVER_4_800_ARGV = ["crossover", "--lo", "4", "--hi", "800", "--format", "json"]


def test_table_4_800_csv_bytes_pinned(capsys):
    code, out, err = _run(capsys, TABLE_4_800_ARGV)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_4_800_SHA256


def test_table_pins_are_the_benchmark_reference():
    # the two table digests the tests read, and nothing else, each a sha256
    assert sorted(TABLE_SHA256) == ["4:40:4", "4:800:4"]
    assert all(re.fullmatch("[0-9a-f]{64}", pin) for pin in TABLE_SHA256.values())


def test_crossover_4_800_json_bytes_pinned(capsys):
    code, out, err = _run(capsys, CROSSOVER_4_800_ARGV)
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
    "hyperbolic --n 1 --r 1": "hyperbolic density bounds require n >= 2",
    "hyperbolic --n 0 --r 1 --refined": "hyperbolic density bounds require n >= 2",
    "overlap --n 3 --r 1 --R 2 --samples 10000 --seed -1 --format json":
        "overlap_monte_carlo requires a seed >= 0, got seed = -1",
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
        ["hyperbolic", "--n", "1", "--r", "1"],
        ["hyperbolic", "--n", "0", "--r", "1", "--refined"],
        ["overlap", "--n", "3", "--r", "1", "--R", "2", "--samples", "10000", "--seed", "-1",
         "--format", "json"],
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
    def broken(z):
        raise IntegrandError("NaN in integrand")

    monkeypatch.setattr(eb, "scaled_erfc_complex", broken)
    code, out, err = _run(capsys, ["table", "--dims", "8", "--methods", "rogers"])
    assert code == 3
    assert json.loads(err) == {"error": "IntegrandError", "message": "NaN in integrand"}


def test_table_runs_rogers_in_lanes(capsys, monkeypatch):
    # one Faddeeva call per quadrature round over all 200 dimensions, not
    # one per panel per dimension (2 786 calls when each n ran alone)
    calls = []

    def counted(z):
        calls.append(None)
        return erfcx(z)

    erfcx = eb.scaled_erfc_complex
    monkeypatch.setattr(eb, "scaled_erfc_complex", counted)
    dims = ",".join(str(n) for n in range(4, 801, 4))
    code, out, _ = _run(capsys, ["table", "--dims", dims, "--methods", "rogers"])
    assert code == 0 and len(out.splitlines()) == 201
    assert len(calls) <= 20


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_table_prints_a_repeated_method_once(capsys, fmt):
    once = _run(capsys, ["table", "--dims", "8,12", "--methods", "kl", "--format", fmt])
    twice = _run(capsys, ["table", "--dims", "8,12", "--methods", "kl,kl", "--format", fmt])
    assert once[0] == 0 and twice == once
    mixed = _run(capsys, ["table", "--dims", "8", "--methods", "cz, kl,cz,kl ,rogers"])
    assert mixed == _run(capsys, ["table", "--dims", "8", "--methods", "cz,kl,rogers"])


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_table_prints_a_repeated_dimension_once(capsys, fmt):
    once = _run(capsys, ["table", "--dims", "8,4", "--methods", "kl,cz", "--format", fmt])
    twice = _run(capsys, ["table", "--dims", "8,8,4", "--methods", "kl,cz", "--format", fmt])
    assert once[0] == 0 and twice == once
    mixed = _run(capsys, ["table", "--dims", "12, 8,12,8 ,4", "--methods", "rogers,kl"])
    assert mixed == _run(capsys, ["table", "--dims", "4,8,12", "--methods", "rogers,kl"])


@pytest.mark.parametrize(
    "method, dims, message",
    [
        ("rogers", "1,8", "rogers_bound requires 2 <= n <= 1000"),
        ("levenshtein", "8,900", "levenshtein_bound requires 1 <= n <= 800"),
    ],
)
def test_lanes_validate_every_dimension_first(capsys, monkeypatch, method, dims, message):
    def untouched(*args):
        raise AssertionError("work started before every dimension was checked")

    monkeypatch.setattr(eb, "scaled_erfc_complex", untouched)
    monkeypatch.setattr(eb, "_first_zeros", untouched)
    code, out, err = _run(capsys, ["table", "--dims", dims, "--methods", method])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_crossover_text_names_its_transition(capsys):
    code, out, err = _run(capsys, ["crossover", "--lo", "94", "--hi", "97", "--format", "text"])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "   94 rogers",
        "   95 rogers",
        "   96 levenshtein",
        "   97 levenshtein",
        "transition rogers -> levenshtein between n=95 and n=96",
    ]


def test_render_round_up_edges():
    with pytest.raises(ValueError, match="sig_digits must be >= 1"):
        cli.render_round_up(LogScaled.from_log(0.0), 0)
    # rounding the mantissa up to 10.00 carries into the next decade
    assert cli.render_round_up(LogScaled.from_log(math.log(9.9996e5)), 4) == "1.000e6"


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
        ["table", "--dims", "4,x"],
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
# int_0^R sinh^(n-1) from the recurrence and series, with the band weighted
# by (sinh s / sinh R)^(n-1)
OVERLAP_TEXT_SHA256 = {
    ("3", "1", "2"): "8f281471396ef7502f1ee55bf1ad885fef107a6a56d8557a5d1d94fce9fb2cff",
    ("10", "0.5", "3"): "b23e5f3077f2f1a5cff5fbca1c68294cefd8fb19fc23a786a54d2941c6feab52",
}


@pytest.mark.parametrize("n, r, R", sorted(OVERLAP_TEXT_SHA256))
def test_overlap_text_bytes_pinned(capsys, n, r, R):
    code, out, err = _run(capsys, ["overlap", "--n", n, "--r", r, "--R", R])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == OVERLAP_TEXT_SHA256[(n, r, R)]


THETA = "1.0471975511965976"  # pi/3, as the benchmark types it

# sha256 of ``lp --n N --theta pi/3 --degree D`` stdout, with the sign check
# taken at both ends of [-1, cos theta] and at the critical points of g;
# these certificates change when the maximum that check finds moves by a bit.
# Re-pinned when the LP came to be solved by column generation over its grid:
# the simplex ends on another vertex of the same optimum, so every coefficient
# moved by round-off (objectives within 1.4e-10 relative at n <= 32).
# Re-pinned when the sign check came to run at g's actual degree, its last
# nonzero coefficient: the roots of g' moved by the noise that interpolating
# the exact-zero top coefficients had added, and with them the shift.
# Objectives: (3, 20) 13.158325232023888 -> 13.15832523202389, (8, 10)
# 240.03865399081891 -> 240.03865399081909, (16, 10) 8373.089797140097 ->
# 8373.089797139563, (32, 20) 3542749.414765318 -> 3542749.4147656723;
# (24, 10) is at full degree and kept its bytes
LP_SHA256 = {
    (3, 20): "5ba48901c64325765bf2107ba438bca973e94ec9bb99f02f9074a89c6272e79d",
    (8, 10): "da49ef3808a216c553bf52f3af57effacca71fb85c6edc2f94743e0e822d8b09",
    (16, 10): "0c7a7882fa5d1392ae0427f9e59cec6594a6e9c7ab64ba5ba4741f65d01f3f44",
    (24, 10): "b8efc7d38f99932d29730bb69c1a51e79114c500b834764c7b7dbbc1c151b5e8",
    (32, 20): "7baedb3ed947034ae6378a852123f461c122bf2feadb2dcec8d2e76b283b0fce",
}


def _lp(capsys, n, degree):
    return _run(capsys, ["lp", "--n", str(n), "--theta", THETA, "--degree", str(degree)])


@pytest.mark.parametrize("n, degree", sorted(LP_SHA256))
def test_lp_bytes_pinned(capsys, n, degree):
    code, out, err = _lp(capsys, n, degree)
    assert code == 0 and err == ""
    assert json.loads(out)["certified"] is True
    _assert_printed_numbers_are_the_coefficients(n, out)
    assert hashlib.sha256(out.encode()).hexdigest() == LP_SHA256[(n, degree)]


# stdout of each command, one argv per argument (as json), run in the child
# as one json list
CLI_PROBE = """
import contextlib, io, json, sys
import packbounds.cli
outs = []
for arg in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        packbounds.cli.main(json.loads(arg))
    outs.append(out.getvalue())
print(json.dumps(outs))
"""


def _stdout_without_avx512(argvs):
    # NPY_DISABLE_CPU_FEATURES acts only on the child, whose numpy takes its
    # non-AVX-512 kernels (a host without those kernels checks nothing new)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, *map(json.dumps, argvs)],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4", "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_lp_pins_hold_without_avx512(capsys):
    # the LP certificates must print the same bytes without AVX-512
    pins = sorted(LP_SHA256)
    child = _stdout_without_avx512(
        [["lp", "--n", str(n), "--theta", THETA, "--degree", str(degree)] for n, degree in pins])
    assert child == [_lp(capsys, n, degree)[1] for n, degree in pins]
    assert [hashlib.sha256(out.encode()).hexdigest() for out in child] == [LP_SHA256[p] for p in pins]


def test_table_and_crossover_pins_hold_without_avx512(capsys):
    # their hot paths run libm, complex numpy or scipy, so their bytes do
    # not depend on the AVX-512 np.log and np.exp, whose last bits differ
    # from libm's
    argvs = [TABLE_ARGV, TABLE_4_800_ARGV, CROSSOVER_4_800_ARGV]
    child = _stdout_without_avx512(argvs)
    assert child == [_run(capsys, argv)[1] for argv in argvs]
    pins = [TABLE_4_40_SHA256, TABLE_4_800_SHA256, CROSSOVER_4_800_SHA256]
    assert [hashlib.sha256(out.encode()).hexdigest() for out in child] == pins


# One sha256 over "<exit code>\n<stdout>" of the benchmark's 44 ``lp`` ops,
# in order: 39 certificates and 5 exit-3 failures.  Re-pinned with LP_SHA256:
# every certificate moved, by round-off at n <= 32 and by up to 4.1e-5
# relative at n = 48 and 64, and the (64, 20) message reads 27.8925 for 27.8923.
# Re-pinned with LP_SHA256 at g's actual degree: 35 of the 39 certificates
# moved, objectives by at most 1.1e-10 relative; (3, 10), (5, 10), (6, 10)
# and (24, 10), at full degree, and the 5 failures kept their bytes
LP_SWEEP_NS = (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
LP_SWEEP_DEGREES = (10, 20, 30, 40)
LP_SWEEP_SHA256 = "3a558f325cd2d80a525d0ae8dcaaa8b47e43243d0c6a7f7ae19ba167156ea87a"
# the kissing numbers: no certified objective at n = 8 or 24 may lie below
KISSING = {8: 240, 24: 196560}


def _assert_printed_numbers_are_the_coefficients(n, out):
    # objective, residual and certified are read again from the printed
    # coefficients alone, and the objective is g(1)/c_0 rounded up
    doc = json.loads(out)
    cert = slp.certificate_from_json(out)
    assert slp.certificate_to_json(cert) + "\n" == out
    report = slp.verify_certificate(cert, None)
    assert (report.max_sign_residual, report.ok) == (doc["residual"], doc["certified"])
    c = doc["coefficients"]
    exact = sum(Fraction(ck) * math.comb(k + n - 3, k) for k, ck in enumerate(c)) / Fraction(c[0])
    assert Fraction(math.nextafter(doc["objective"], -math.inf)) < exact <= Fraction(doc["objective"])


def test_lp_sweep_bytes_pinned(capsys):
    digest = hashlib.sha256()
    codes = []
    objectives = {}
    for n in LP_SWEEP_NS:
        for degree in LP_SWEEP_DEGREES:
            code, out, _ = _lp(capsys, n, degree)
            codes.append(code)
            digest.update(f"{code}\n{out}".encode())
            if code == 0:
                _assert_printed_numbers_are_the_coefficients(n, out)
                objectives.setdefault(n, []).append(json.loads(out)["objective"])
    assert (codes.count(0), codes.count(3)) == (39, 5)
    assert digest.hexdigest() == LP_SWEEP_SHA256
    # no n's certified objectives rise with degree.  This pins how these 44
    # runs behave, not an LP theorem: each degree solves on its own 32*degree
    # grid and a certificate is that grid's optimum plus a shift, so a change
    # that certifies (48, 20) or (64, 20) may break it without being wrong
    rising = [n for n, objs in objectives.items() if any(b > a for a, b in zip(objs, objs[1:]))]
    assert rising == []
    for n, floor in KISSING.items():
        assert min(objectives[n]) >= floor


# ``lp`` at the edges of its domain: theta near 0, pi/3 and pi and past them,
# degree 0 and 201 past the range, and degrees 1 and 2, where g has no
# critical point and the sign check reads the interval's ends alone
LP_EDGE_THETAS = ("1e-9", "1e-6", "0.5", repr(math.pi / 3 - 1e-13), THETA,
                  repr(math.pi / 3 + 1e-13), repr(math.pi / 2), "2.5", repr(math.pi),
                  "3.1416", "0", "-1", "nan", "inf")
LP_EDGE_DEGREES = (0, 1, 2, 3, 20, 201)


@pytest.mark.parametrize("n", [2, 3, 8, 24])
def test_lp_exit_code_sweep(capsys, n):
    bad = []
    for theta in LP_EDGE_THETAS:
        for degree in LP_EDGE_DEGREES:
            code, out, err = _run(capsys, ["lp", "--n", str(n), "--theta", theta,
                                           "--degree", str(degree)])
            if code == 0:
                ok = (err == "" and json.loads(out)["certified"] is True
                      and "nan" not in out.lower() and "inf" not in out.lower())
            elif code == 2:
                ok = out == "" and err.endswith("\n") and err.splitlines()[-1].startswith("error: ")
            elif code == 3:
                ok = out == "" and err.count("\n") == 1 and isinstance(json.loads(err), dict)
            else:
                ok = False
            if not ok or "Traceback" in err:
                bad.append((theta, degree, code, out, err))
    assert bad == []


# ``hyperbolic``, ``overlap``, ``lp``, ``table`` and ``crossover`` at the
# edges of their domains: n past both ends and far past them, radii from 0
# and the least subnormal to past exp overflow and invalid, theta near 0,
# pi/3 and pi, and overlap windows R from tiny to just past their range;
# every float is passed as --opt=value, so -0 and -inf reach the parser
EDGE_NS = ("1", "2", "3", "4", "200", "201", "400", "800", "801", "100000")
EDGE_RS = ("0", "-0", "5e-324", "1e-300", "1e-9", "0.5", "1", "50", repr(50.0 + 1e-6), "709",
           "710.2", "710.5", "1e308", "-1", "nan", "inf", "-inf")
EDGE_THETAS = ("5e-324", "-0", "1e-9", repr(math.pi / 3 - 1e-13), THETA, repr(math.pi / 3 + 1e-13),
               repr(math.pi), repr(math.nextafter(math.pi, 4.0)), "3.1416", "-inf")
EDGE_WINDOWS = ("5e-324", "1e-300", "1e-9", "1", "2", "50", repr(50.0 + 1e-6), "51", "710.5", "-inf")
EDGE_DEGREES = ("-1", "0", "1", "2", "3", "4", "201", "100000")


# short ``crossover`` ranges at and past both ends of 4..800, and reversed
EDGE_RANGES = [(3, 3), (3, 4), (3, 5), (4, 4), (4, 6), (798, 800), (800, 800),
               (799, 801), (800, 801), (801, 801), (4, 3), (6, 4), (800, 798), (801, 800)]


def _edge_argvs(command):
    if command == "table":
        return [["table", "--dims", n, "--format", fmt] for n in EDGE_NS for fmt in cli.ROW_FORMATS]
    if command == "crossover":
        return [["crossover", "--lo", str(lo), "--hi", str(hi), "--format", fmt]
                for lo, hi in EDGE_RANGES for fmt in cli.ROW_FORMATS]
    if command == "lp":
        return [["lp", "--n", n, f"--theta={theta}", "--degree", d]
                for n in EDGE_NS for theta in EDGE_THETAS for d in EDGE_DEGREES]
    argvs = []
    for n in EDGE_NS:
        for r in EDGE_RS:
            if command == "hyperbolic":
                # without --theta, n = 100 000 walks 7 786 roots (about 9 s)
                for theta in (None,) * (n != "100000") + EDGE_THETAS:
                    argv = ["hyperbolic", "--n", n, f"--r={r}"]
                    argv += [] if theta is None else [f"--theta={theta}"]
                    argvs += [argv, argv + ["--refined"]]
            else:
                for R in EDGE_WINDOWS:
                    argv = ["overlap", "--n", n, f"--r={r}", f"--R={R}"]
                    argvs += [argv, argv + ["--format", "json"]]
    return argvs


@pytest.mark.parametrize("command", ["hyperbolic", "overlap", "lp", "table", "crossover"])
def test_exit_code_sweep(capsys, command):
    bad = []
    for argv in _edge_argvs(command):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        if code == 0:
            ok = err == "" and "nan" not in out.lower() and "inf" not in out.lower()
        elif code == 2:
            # argparse prefixes its line with "packbounds <command>: "
            ok = out == "" and err.endswith("\n") and "error: " in err.splitlines()[-1]
        elif code == 3:
            ok = out == "" and err.count("\n") == 1 and isinstance(json.loads(err), dict)
        else:
            ok = False
        if not ok or "Traceback" in err:
            bad.append((argv, code, out, err))
    assert bad == []


# sha256 of the sorted-key json of ``transfer_g_to_f`` for the certificate
# that ``lp --n 4 --theta pi/3 --degree 10`` prints.  Re-pinned when the
# radial integral over [R, 2R] moved from tanh-sinh to Gauss-Legendre after
# rho = 2R - R s^2: only ``integral_f`` changed, 6234.181826177337 ->
# 6234.1818261905355 (2.1e-12 relative; the exact vol(B_R)^2 c_0 is within
# 2.3e-12 of the new value).  Re-pinned with LP_SHA256, when the certificate's
# coefficients moved: f(0) 2018.1033218161817 -> 2018.1033218176394, and the
# other samples moved alike; integral_f kept 6234.181826190535.  Re-pinned
# when the lens came to sum g by Clenshaw's recurrence on its Chebyshev
# coefficients, with sin^(n-2) phi from cos phi in the cut segments: f(0)
# 2018.1033218176394 -> 2018.1033218176347, integral_f 6234.181826190535 ->
# 6234.181826190536 (the identities' errors kept: 2e-15 and 2.3e-12).
# Re-pinned with LP_SHA256 at g's actual degree, which moved the certificate
# and the Chebyshev coefficients the lens sums: f(0) 2018.1033218176347 ->
# 2018.1033218176437, integral_f 6234.181826190536 -> 6234.181826190531
# (the identities' errors 1.8e-15 -> 2.2e-15 and 2.3e-12 kept)
TRANSFER_4_SHA256 = "aad6688ab56256d27079b36b85d74511dec9cf4bf5da01db876e1545829e1b1d"


# the same for ``lp --n 8 --theta pi/3 --degree 10``, the benchmark's other
# transfer, pinned when the lens integrals came to run in blocks across radii
# and re-pinned with TRANSFER_4_SHA256: f(0) 249407.435714891 ->
# 249407.4357148905, integral_f 1079583.9733840225 -> 1079583.9733840353,
# and re-pinned at g's actual degree, 6 of the declared 10: f(0) ->
# 249407.43571489133, integral_f -> 1079583.9733840283 (the identities'
# errors 5.8e-15 -> 3.1e-15 and 2.9e-15 -> 3.7e-15).
# Both digests hold only where numpy takes the same SIMD kernels as where they
# were taken; test_transfer.py checks the identities on both kernel sets
TRANSFER_8_SHA256 = "ea38a10a315daa89ad6edc0176b111f93c62d480f5fd1f977bdd97d2fcc88ee3"


def _transfer_digest(capsys, n):
    code, out, _ = _lp(capsys, n, 10)
    assert code == 0
    cert = slp.certificate_from_json(out)
    probe = slp.transfer_g_to_f(cert, slp.LPProblem(n=n, theta=cert.theta, degree=10))
    text = json.dumps(dataclasses.asdict(probe), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_transfer_probe_pinned(capsys):
    assert _transfer_digest(capsys, 4) == TRANSFER_4_SHA256


def test_transfer_probe_pinned_at_n8(capsys):
    assert _transfer_digest(capsys, 8) == TRANSFER_8_SHA256


def test_lp_simplex_failure_exits_3(capsys):
    # the dense simplex finds the dual unbounded; scipy's HiGHS solver finds
    # this discretized LP infeasible, so round-off is not the only cause
    code, out, err = _lp(capsys, 32, 10)
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "LPInfeasibleError"
    assert "n=32, degree=10" in doc["message"] and "round-off" in doc["message"]
    assert "setup is broken" not in doc["message"]


def test_lp_stalled_simplex_exits_3_fast(capsys):
    # one solve on all 1 920 grid points ran about 398 000 pivots on a
    # 61 x 1 981 tableau to the iteration limit, about two minutes; column
    # generation reaches the same limit on its first, narrow tableau
    start = time.perf_counter()
    code, out, err = _run(capsys, ["lp", "--n", "200", "--theta", THETA, "--degree", "60"])
    assert time.perf_counter() - start < 30.0
    assert code == 3 and out == "" and "Traceback" not in err
    assert json.loads(err) == {"error": "LPInfeasibleError",
                               "message": "simplex returned iteration_limit"}


def test_lp_unabsorbable_violation_exits_3(capsys):
    # (64, 20) fails alike on 640, 1 280 and 2 560 grid points, so the
    # message names the violation and both causes, not the grid alone
    code, out, err = _lp(capsys, 64, 20)
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "LPInfeasibleError"
    msg = doc["message"]
    assert msg.startswith("g rises to 27.89") and "n=64, degree=20" in msg
    assert "constraint grid" in msg and "round-off" in msg and "far too coarse" not in msg


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
