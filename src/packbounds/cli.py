"""Command-line front end: bound tables, crossover scans, LP certificates,
hyperbolic bounds, overlap fractions, and the asymptotic rate.

Exit codes: 0 success, 2 invalid configuration (including parameters
outside a bound's domain), 3 numeric non-convergence (with a JSON
diagnostic on stderr).  Identical configurations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from . import euclid_bounds as eb
from . import hyperbolic as hyp
from . import spherical_lp as slp
from .specfun import LN10, IntegrandError, LogScaled, NonConvergenceError

__all__ = [
    "RunConfig",
    "ConfigError",
    "render_round_up",
    "crossover_scan",
    "run",
    "main",
]

CSV_HEADER = ["n", "method", "value_log10", "value_rounded", "k_star", "theta_star"]


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class RunConfig:
    command: str
    dims: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=lambda: list(eb.METHODS[:4]))
    theta: float | None = None
    r: float | None = None
    R: float | None = None
    degree: int | None = None
    lo: int | None = None
    hi: int | None = None
    refined: bool = False
    samples: int | None = None
    format: str = "text"
    seed: int = 0
    output_path: str | None = None

    def validate(self) -> None:
        if self.command == "table" and not self.dims:
            raise ConfigError("table needs --dims")
        if self.format not in ("csv", "json", "text"):
            raise ConfigError(f"unknown format {self.format!r}")
        bad = [m for m in self.methods if m not in eb.METHODS]
        if bad:
            raise ConfigError(f"unknown methods: {bad}")
        if self.command == "table":
            missing = [m for m in self.methods if m not in _BOUND_FUNCS]
            if missing:
                raise ConfigError(f"methods without a table implementation: {missing}")


def render_round_up(v: LogScaled, sig_digits: int) -> str:
    """Scientific notation, mantissa rounded up: the smallest sig-digit
    value that is >= the true value.  Exactly representable inputs are
    rendered as themselves (a narrow snap window absorbs float noise)."""
    if v.is_zero:
        raise ValueError("cannot render zero in round-up scientific notation")
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    l10 = v.log_value / LN10
    e = math.floor(l10)
    m = 10.0 ** (l10 - e)
    if m >= 10.0:
        m /= 10.0
        e += 1
    if m < 1.0:
        m *= 10.0
        e -= 1
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
# Row assembly
# ---------------------------------------------------------------------------

_BOUND_FUNCS = {
    "rogers": lambda n: eb.rogers_bound(n),
    "levenshtein": lambda n: eb.levenshtein_bound(n),
    "kl": lambda n: eb.kl_bound(n),
    "cz": lambda n: eb.cz_bound(n),
}


def _record_row(rec) -> dict:
    return {
        "n": rec.dimension,
        "method": rec.method,
        "value_log10": rec.value.log10,
        "value_rounded": render_round_up(rec.value, 4),
        "k_star": rec.k_star,
        "theta_star": rec.theta_star,
    }


def bound_rows(dims: list[int], methods: list[str]) -> list[dict]:
    """One row per (dimension, method), ordered by dimension, then by the
    order of ``methods``."""
    return [_record_row(_BOUND_FUNCS[m](n)) for n in sorted(dims) for m in methods]


def crossover_scan(lo: int, hi: int) -> list[tuple[int, str]]:
    """Best historical method for each n in [lo, hi]."""
    if not 4 <= lo <= hi <= 800:
        raise ConfigError("crossover scan requires 4 <= lo <= hi <= 800")
    return [(n, eb.best_method(n)) for n in range(lo, hi + 1)]


def _transitions(scan: list[tuple[int, str]]) -> list[dict]:
    out = []
    for (n0, m0), (n1, m1) in zip(scan, scan[1:]):
        if m0 != m1:
            out.append({"n_before": n0, "from": m0, "n_after": n1, "to": m1})
    return out


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


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


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_table(cfg: RunConfig) -> None:
    rows = bound_rows(cfg.dims, cfg.methods)
    _write(_emit_rows(rows, cfg.format), cfg.output_path)


def _cmd_crossover(cfg: RunConfig) -> None:
    scan = crossover_scan(cfg.lo, cfg.hi)
    trans = _transitions(scan)
    if cfg.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "best_method"])
        for n, m in scan:
            w.writerow([n, m])
        _write(buf.getvalue(), cfg.output_path)
    elif cfg.format == "json":
        doc = {"rows": [{"n": n, "best_method": m} for n, m in scan], "transitions": trans}
        _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.output_path)
    else:
        lines = [f"{n:>5} {m}" for n, m in scan]
        for t in trans:
            lines.append(
                f"transition {t['from']} -> {t['to']} between n={t['n_before']} "
                f"and n={t['n_after']}"
            )
        _write("\n".join(lines) + "\n", cfg.output_path)


def _cmd_lp(cfg: RunConfig) -> None:
    if cfg.dims is None or len(cfg.dims) != 1:
        raise ConfigError("lp needs exactly one dimension via --dims")
    if cfg.theta is None:
        raise ConfigError("lp needs --theta")
    degree = cfg.degree or 16
    problem = slp.LPProblem(n=cfg.dims[0], theta=cfg.theta, degree=degree)
    cert = slp.lp_solve_spherical(problem)
    _write(slp.certificate_to_json(cert) + "\n", cfg.output_path)


def _cmd_hyperbolic(cfg: RunConfig) -> None:
    if cfg.dims is None or len(cfg.dims) != 1:
        raise ConfigError("hyperbolic needs exactly one dimension via --dims")
    if cfg.r is None:
        raise ConfigError("hyperbolic needs --r")
    n = cfg.dims[0]
    if cfg.theta is not None:
        rec = hyp.hyp_density_bound(n, cfg.r, cfg.theta, refined=cfg.refined)
    else:
        rec = hyp.hyp_bound_optimized(n, cfg.r, refined=cfg.refined)
    _write(_emit_rows([_record_row(rec)], cfg.format), cfg.output_path)


def _cmd_overlap(cfg: RunConfig) -> None:
    if cfg.dims is None or len(cfg.dims) != 1:
        raise ConfigError("overlap needs exactly one dimension via --dims")
    if cfg.r is None or cfg.R is None:
        raise ConfigError("overlap needs --r and --R")
    n = cfg.dims[0]
    finite = hyp.overlap_finite(n, cfg.r, cfg.R)
    if cfg.format == "text":
        _write(f"{finite!r}\n", cfg.output_path)
        return
    doc = {
        "n": n,
        "r": cfg.r,
        "R": cfg.R,
        "finite": finite,
        "limit": hyp.overlap_limit(n, cfg.r),
    }
    if cfg.samples:
        mean, stderr = hyp.overlap_monte_carlo(n, cfg.r, cfg.R, cfg.samples, cfg.seed)
        doc["mc_mean"] = mean
        doc["mc_stderr"] = stderr
        doc["mc_samples"] = cfg.samples
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.output_path)


def _cmd_rate(cfg: RunConfig) -> None:
    res = eb.optimize_asymptotic_rate()
    doc = {"theta_star": res.theta_star, "rate_log2": res.rate_log2}
    _write(json.dumps(doc, sort_keys=True) + "\n", cfg.output_path)


_COMMANDS = {
    "table": _cmd_table,
    "crossover": _cmd_crossover,
    "lp": _cmd_lp,
    "hyperbolic": _cmd_hyperbolic,
    "overlap": _cmd_overlap,
    "rate": _cmd_rate,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration.  Returns the process exit code."""
    try:
        cfg.validate()
        _COMMANDS[cfg.command](cfg)
        return 0
    except (NonConvergenceError, IntegrandError, slp.LPInfeasibleError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 3
    except ValueError as exc:
        # ConfigError and the bounds' domain errors; IntegrandError is a
        # ValueError too, and the clause above keeps it at exit 3
        sys.stderr.write(f"error: {exc}\n")
        return 2


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_dims(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc


def _parse_methods(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="packbounds",
        description="Upper bounds for sphere packing density in R^n and H^n",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json", "text"), default=None)
        p.add_argument("--output", dest="output_path", default=None)

    p = sub.add_parser("table", help="bound table over dimensions")
    common(p)
    p.add_argument("--dims", type=_parse_dims, required=False)
    p.add_argument("--methods", type=_parse_methods, default=None)

    p = sub.add_parser("crossover", help="best historical method per dimension")
    common(p)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = sub.add_parser("lp", help="spherical-code LP certificate")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("hyperbolic", help="hyperbolic density bound")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--refined", action="store_true")

    p = sub.add_parser("overlap", help="ball overlap fraction in H^n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", dest="R", type=float, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("rate", help="asymptotic per-dimension exponent")
    common(p)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "dims", None) is not None:
        cfg.dims = args.dims
    if getattr(args, "n", None) is not None:
        cfg.dims = [args.n]
    if getattr(args, "methods", None) is not None:
        cfg.methods = args.methods
    for name in ("theta", "r", "R", "degree", "lo", "hi", "samples", "output_path"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    cfg.refined = bool(getattr(args, "refined", False))
    if getattr(args, "format", None) is not None:
        cfg.format = args.format
    elif args.command in ("rate", "lp"):
        cfg.format = "json"
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def main(argv=None) -> int:
    return run(config_from_args(build_parser().parse_args(argv)))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
