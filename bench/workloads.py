"""Workloads of the packbounds benchmark and the checks on their outputs.

An op is one CLI invocation, ``packbounds.cli.main(argv)``, or, where the
CLI has no command, one public API call.  Each workload function takes the
seed; only the Monte-Carlo ops use it.  The keyword arguments exist so the
self-test can build small variants of the same ops.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

THETA = "1.0471975511965976"  # pi/3, as a user types it
KISSING = {8: 240.0, 24: 196560.0}  # the LP objective can never fall below these
OVERLAP_RTOL = 1e-8
MC_SIGMAS = 4.0


class CheckError(Exception):
    """An op returned an answer that fails its output check."""


class Skip(Exception):
    """An API op could not be set up because an op it depends on failed."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...] = ()
    # API op: (layer, function) called with the arguments prepare() builds
    # from the outcomes of earlier ops in the same pass
    api: tuple[str, str] | None = None
    prepare: Callable | None = None
    check: Callable | None = None  # (modules, outcome, outcomes) -> None or raise


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _g(x: float) -> str:
    return f"{x:g}"


# ---------------------------------------------------------------------------
# euclid_table
# ---------------------------------------------------------------------------


def _check_table(expected: str):
    def check(modules, out, outcomes):
        got = digest(out.stdout)
        if got != expected:
            raise CheckError(f"table bytes differ from the reference: sha256 {got[:16]}")

    return check


def euclid_table(seed: int, lo: int = 4, hi: int = 800, step: int = 4) -> list[Op]:
    dims = ",".join(str(n) for n in range(lo, hi + 1, step))
    argv = ("table", "--dims", dims, "--methods", "rogers,levenshtein,kl,cz", "--format", "csv")
    expected = REFERENCE["table_sha256"][f"{lo}:{hi}:{step}"]
    return [Op(f"table {lo}..{hi} step {step}", argv=argv, check=_check_table(expected))]


# ---------------------------------------------------------------------------
# lp_sweep
# ---------------------------------------------------------------------------


def _check_lp(n: int, degree: int):
    def check(modules, out, outcomes):
        slp = modules["spherical_lp"]
        doc = json.loads(out.stdout)
        if doc["certified"] is not True:
            raise CheckError("certificate is not certified")
        cert = slp.certificate_from_json(out.stdout)
        report = slp.verify_certificate(cert, slp.LPProblem(n=n, theta=float(THETA), degree=degree))
        if not report.ok:
            raise CheckError(f"independent verification failed: {report}")
        if n in KISSING and doc["objective"] < KISSING[n]:
            raise CheckError(f"objective {doc['objective']} below the kissing number {KISSING[n]}")

    return check


def _transfer_args(source: str):
    def prepare(modules, outcomes):
        src = outcomes.get(source)
        if src is None or src.error:
            raise Skip(f"needs the certificate of {source!r}")
        slp = modules["spherical_lp"]
        cert = slp.certificate_from_json(src.stdout)
        return cert, slp.LPProblem(n=cert.n, theta=cert.theta, degree=cert.degree)

    return prepare


def _check_transfer(modules, out, outcomes):
    """The identities f(0) = vol(B_R) g(1), int f = vol(B_R)^2 c_0, and
    f = 0 past 2R, with g(1) = objective * c_0 read from the certificate."""
    probe, (cert, _) = out.value, out.args
    n, R = probe.n, probe.R
    vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * R**n
    c0 = cert.coefficients[0]
    if not math.isclose(probe.f_at_zero, vol * cert.objective * c0, rel_tol=1e-6):
        raise CheckError(f"f(0) = {probe.f_at_zero} breaks f(0) = vol(B_R) g(1)")
    if not math.isclose(probe.integral_f, vol * vol * c0, rel_tol=1e-5):
        raise CheckError(f"int f = {probe.integral_f} breaks int f = vol(B_R)^2 c_0")
    if any(v != 0.0 for r, v in zip(probe.sample_radii, probe.f_values) if r >= 2.0 * R):
        raise CheckError("f does not vanish past 2R")


def lp_sweep(
    seed: int,
    ns=(3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64),
    degrees=(10, 20, 30, 40),
    transfers=(4, 8),
    transfer_degree: int = 10,
) -> list[Op]:
    ops = [
        Op(f"lp n={n} d={d}",
           argv=("lp", "--n", str(n), "--theta", THETA, "--degree", str(d)),
           check=_check_lp(n, d))
        for n in ns
        for d in degrees
    ]
    ops += [
        Op(f"transfer n={n} d={transfer_degree}",
           api=("spherical_lp", "transfer_g_to_f"),
           prepare=_transfer_args(f"lp n={n} d={transfer_degree}"),
           check=_check_transfer)
        for n in transfers
    ]
    return ops


# ---------------------------------------------------------------------------
# hyp_mix
# ---------------------------------------------------------------------------


def _overlap_doc(out, n: int, r: float, R: float) -> dict:
    doc = json.loads(out.stdout)
    finite = doc["finite"]
    if not 0.0 <= finite <= 1.0:
        raise CheckError(f"finite overlap {finite} outside [0, 1]")
    ref = REFERENCE["overlap_finite"][f"{n},{_g(r)},{_g(R)}"]
    if abs(finite - ref) > OVERLAP_RTOL * abs(ref):
        raise CheckError(f"finite overlap {finite!r} differs from the reference {ref!r}")
    return doc


def _check_overlap(n: int, r: float, R: float):
    def check(modules, out, outcomes):
        _overlap_doc(out, n, r, R)

    return check


def _check_mc(n: int, r: float, R: float, samples: int):
    def check(modules, out, outcomes):
        doc = _overlap_doc(out, n, r, R)
        if doc["mc_samples"] != samples:
            raise CheckError(f"mc_samples is {doc['mc_samples']}, asked for {samples}")
        if abs(doc["mc_mean"] - doc["finite"]) > MC_SIGMAS * doc["mc_stderr"]:
            raise CheckError(
                f"Monte-Carlo mean {doc['mc_mean']} is more than {MC_SIGMAS} sigma "
                f"({doc['mc_stderr']}) from the finite overlap {doc['finite']}"
            )

    return check


def _bound_log10(out) -> float:
    (row,) = json.loads(out.stdout)
    value = row["value_log10"]
    if not math.isfinite(value):
        raise CheckError(f"bound log10 {value} is not finite")
    return value


def _check_coarse(modules, out, outcomes):
    _bound_log10(out)


def _check_refined(coarse: str):
    def check(modules, out, outcomes):
        refined = _bound_log10(out)
        ref = outcomes.get(coarse)
        if ref is not None and not ref.error and refined > _bound_log10(ref):
            raise CheckError(f"refined bound 10^{refined} exceeds the coarse bound")

    return check


def hyp_mix(
    seed: int,
    overlap_ns=(2, 3, 4, 10, 50),
    radii=((1.0, 2.0), (0.5, 3.0), (1.0, 5.0), (2.0, 8.0)),
    mc_ns=(2, 3, 4),
    mc_samples: int = 200000,
    hyp_ns=(2, 8, 24, 100, 200),
    hyp_rs=(0.5, 1.0, 2.0),
) -> list[Op]:
    ops = [
        Op(f"overlap n={n} r={_g(r)} R={_g(R)}",
           argv=("overlap", "--n", str(n), "--r", _g(r), "--R", _g(R), "--format", "json"),
           check=_check_overlap(n, r, R))
        for n in overlap_ns
        for r, R in radii
    ]
    ops += [
        Op(f"overlap-mc n={n}",
           argv=("overlap", "--n", str(n), "--r", "1", "--R", "2", "--samples", str(mc_samples),
                 "--seed", str(seed), "--format", "json"),
           check=_check_mc(n, 1.0, 2.0, mc_samples))
        for n in mc_ns
    ]
    for n in hyp_ns:
        for r in hyp_rs:
            argv = ("hyperbolic", "--n", str(n), "--r", _g(r), "--format", "json")
            coarse = f"hyperbolic n={n} r={_g(r)}"
            ops.append(Op(coarse, argv=argv, check=_check_coarse))
            ops.append(Op(f"{coarse} refined", argv=argv + ("--refined",),
                          check=_check_refined(coarse)))
    return ops


WORKLOADS = {"euclid_table": euclid_table, "lp_sweep": lp_sweep, "hyp_mix": hyp_mix}


def render(value) -> str:
    """Canonical text of an API op's result, for its digest."""
    return json.dumps(dataclasses.asdict(value), sort_keys=True)
