"""Command-line front end: bound tables, crossover scans, LP certificates,
hyperbolic bounds, overlap fractions, and the asymptotic rate.

``table``, ``crossover`` and ``hyperbolic`` print csv, json or text
(``--format``, default text); ``overlap`` prints json or text; ``lp`` and
``rate`` print json.  Every subcommand writes to ``--output`` if given,
else to stdout.

Exit codes: 0 success, 2 invalid configuration (usage errors, unknown
methods, parameters outside a bound's domain, an unwritable ``--output``),
3 numeric non-convergence (with a JSON diagnostic on stderr).  Identical
configurations produce byte-identical output.

``scipy.special`` is imported on first use.  ``lp``, ``hyperbolic``,
``rate`` and ``table --methods kl,cz`` never load it; ``table`` with
``rogers`` or ``levenshtein``, ``crossover`` and ``overlap`` load it on
their first call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import euclid_bounds as eb
from . import hyperbolic as hyp
from . import spherical_lp as slp
from .specfun import IntegrandError, LogScaled, NonConvergenceError

__all__ = ["render_round_up", "main"]

CSV_HEADER = ["n", "method", "value_log10", "value_rounded", "k_star", "theta_star"]
ROW_FORMATS = ("csv", "json", "text")


def render_round_up(v: LogScaled, sig_digits: int) -> str:
    """Scientific notation, mantissa rounded up: the smallest sig-digit
    value that is >= the true value.  Exactly representable inputs are
    rendered as themselves (a narrow snap window absorbs float noise)."""
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    m, e = v.mantissa_exponent()
    scale = 10 ** (sig_digits - 1)
    x = m * scale
    near = round(x)
    snap = max(1e-9, x * 1e-12)
    k = near if abs(x - near) <= snap else math.ceil(x)
    if k >= 10 * scale:
        k = scale
        e += 1
    return f"{k / scale:.{sig_digits - 1}f}e{e}"


# ---------------------------------------------------------------------------
# Row rendering
# ---------------------------------------------------------------------------


def _record_row(rec) -> dict:
    return {
        "n": rec.dimension,
        "method": rec.method,
        "value_log10": rec.value.log10,
        "value_rounded": render_round_up(rec.value, 4),
        "k_star": rec.k_star,
        "theta_star": rec.theta_star,
    }


def _emit_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow(
                [
                    r["n"],
                    r["method"],
                    repr(r["value_log10"]),
                    r["value_rounded"],
                    "" if r["k_star"] is None else r["k_star"],
                    "" if r["theta_star"] is None else repr(r["theta_star"]),
                ]
            )
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    lines = [f"{'n':>5} {'method':<12} {'value':>12} {'log10':>18} {'k*':>5}"]
    for r in rows:
        k = "" if r["k_star"] is None else str(r["k_star"])
        lines.append(
            f"{r['n']:>5} {r['method']:<12} {r['value_rounded']:>12} "
            f"{r['value_log10']:>18.12f} {k:>5}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands: each reads its own options and returns the text to print
# ---------------------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> str:
    # rows by dimension, then in --methods order, from one bounds call
    dims = sorted(args.dims)
    records = eb.bounds(args.methods, dims)
    rows = [_record_row(records[m][i]) for i in range(len(dims)) for m in args.methods]
    return _emit_rows(rows, args.format)


def _cmd_crossover(args: argparse.Namespace) -> str:
    scan = eb.crossover_scan(args.lo, args.hi)
    trans = [{"n_before": n0, "from": m0, "n_after": n1, "to": m1}
             for (n0, m0), (n1, m1) in zip(scan, scan[1:]) if m0 != m1]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "best_method"])
        for n, m in scan:
            w.writerow([n, m])
        return buf.getvalue()
    if args.format == "json":
        doc = {"rows": [{"n": n, "best_method": m} for n, m in scan], "transitions": trans}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"{n:>5} {m}" for n, m in scan]
    for t in trans:
        lines.append(
            f"transition {t['from']} -> {t['to']} between n={t['n_before']} "
            f"and n={t['n_after']}"
        )
    return "\n".join(lines) + "\n"


def _cmd_lp(args: argparse.Namespace) -> str:
    problem = slp.LPProblem(n=args.n, theta=args.theta, degree=args.degree)
    return slp.certificate_to_json(slp.lp_solve_spherical(problem)) + "\n"


def _cmd_hyperbolic(args: argparse.Namespace) -> str:
    if args.theta is not None:
        rec = hyp.hyp_density_bound(args.n, args.r, args.theta, refined=args.refined)
    else:
        rec = hyp.hyp_bound_optimized(args.n, args.r, refined=args.refined)
    return _emit_rows([_record_row(rec)], args.format)


def _cmd_overlap(args: argparse.Namespace) -> str:
    if args.samples is not None and args.format == "text":
        raise ValueError("--samples needs --format json; text prints only the finite overlap")
    if args.seed is not None and args.samples is None:
        raise ValueError("--seed needs --samples; it seeds only the Monte-Carlo estimate")
    n, r, R = args.n, args.r, args.R
    finite = hyp.overlap_finite(n, r, R)
    if args.format == "text":
        return f"{finite!r}\n"
    doc = {"n": n, "r": r, "R": R, "finite": finite, "limit": hyp.overlap_limit(n, r)}
    if args.samples is not None:
        mean, stderr = hyp.overlap_monte_carlo(n, r, R, args.samples, args.seed or 0)
        doc["mc_mean"] = mean
        doc["mc_stderr"] = stderr
        doc["mc_samples"] = args.samples
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_rate(args: argparse.Namespace) -> str:
    res = eb.optimize_asymptotic_rate()
    doc = {"theta_star": res.theta_star, "rate_log2": res.rate_log2}
    return json.dumps(doc, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing and the exit-code contract
# ---------------------------------------------------------------------------


def _parse_dims(text: str) -> list[int]:
    """The comma-separated dimensions, each once, in first-seen order."""
    try:
        dims = list(dict.fromkeys(int(x) for x in text.split(",") if x.strip()))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc
    if not dims:
        raise argparse.ArgumentTypeError("empty dimension list")
    return dims


def _parse_methods(text: str) -> list[str]:
    """The comma-separated method names, each once, in first-seen order."""
    methods = list(dict.fromkeys(x.strip() for x in text.split(",") if x.strip()))
    if not methods:
        raise argparse.ArgumentTypeError("empty method list")
    return methods


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="packbounds",
        description="Upper bounds for sphere packing density in R^n and H^n",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=()):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--output", default=None)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        return p

    p = command("table", _cmd_table, "bound table over dimensions", ROW_FORMATS)
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--methods", type=_parse_methods, default=eb.METHODS)

    p = command("crossover", _cmd_crossover, "best historical method per dimension", ROW_FORMATS)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = command("lp", _cmd_lp, "spherical-code LP certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--degree", type=int, default=16)

    p = command("hyperbolic", _cmd_hyperbolic, "hyperbolic density bound", ROW_FORMATS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--refined", action="store_true")

    p = command("overlap", _cmd_overlap, "ball overlap fraction in H^n", ("json", "text"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", dest="R", type=float, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    command("rate", _cmd_rate, "asymptotic per-dimension exponent")
    return ap


# parsing never mutates the parser, so one instance serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = args.func(args)
        if args.output:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (NonConvergenceError, IntegrandError, slp.LPInfeasibleError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 3
    except (ValueError, OSError) as exc:
        # the bounds' domain errors, unknown methods and an --output that
        # cannot be written; IntegrandError is a ValueError too, and the
        # clause above keeps it at exit 3
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
