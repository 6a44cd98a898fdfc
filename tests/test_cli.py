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
