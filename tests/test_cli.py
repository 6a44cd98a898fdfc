import csv
import hashlib
import io
import json

import pytest

from packbounds import cli
from packbounds import euclid_bounds as eb
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


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--dims", "1"],
        ["table", "--dims", "900"],
        ["table", "--dims", "8", "--methods", "lp_transfer"],
        ["table", "--dims", "8", "--methods", "no_such_method"],
        ["crossover", "--lo", "2", "--hi", "9"],
    ],
)
def test_invalid_configuration_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# sha256 of the 30 hyperbolic json rows n in {2, 8, 24, 100, 200}, r in
# {0.5, 1, 2}, coarse then refined, as printed by the first release
HYPERBOLIC_GRID_SHA256 = "ab40b034532583ce15824629cf8c89da330f8ec096424d2d0e3277ce415b98ae"


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
