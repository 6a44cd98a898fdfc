"""Benchmark of packbounds: named workloads of real operations, one at a time.

    python3 bench/run.py --workload euclid_table --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Load model: closed loop, one client.  Each op runs
with the package's caches emptied first, as cold as a new CLI process,
minus the import, which ``setup_s`` times in fresh interpreters.  Whole
passes over the workload's ops repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see ``spans.py``).  Every op's output is checked.  The last line of
stdout is the result object; the line before it holds the run's metadata,
which is also written, with the result, under ``.bench_out/``.

The host's speed is not constant: on a shared machine a fixed loop can
take half as long again in one second as in the next, and a workload's
mean over 30 s drifts by a third over minutes.  So every op is bracketed
by a fixed pure-Python loop (``calibrate``), and the end-to-end times are
scaled by ``CAL_REF_S`` over the loop's mean time around that op: they read
as seconds on a host where the loop takes ``CAL_REF_S``.  The raw times
are kept in the metadata.
BLAS runs on one thread, so that its spinning threads do not contend with
the package's own pool on a machine with few cores.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# before numpy is first imported, here or in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import LAYERS, PER_LAYER, Recorder, layer_metrics
from workloads import WORKLOADS, Skip, digest, render

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; from run import calibrate; "
    "c = calibrate(); t = time.perf_counter(); import packbounds.cli; "
    "t = time.perf_counter() - t; print(t, (c + calibrate()) / 2)"
)
CAL_LOOPS = 40_000
CAL_REF_S = 0.004  # the loop's time on the reference host

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    code: int | None = None  # CLI exit code; None when an exception escaped
    stdout: str = ""
    stderr: str = ""
    args: tuple = ()
    value: object = None  # an API op's return value
    wall: float = 0.0
    cpu: float = 0.0
    speed: float = 1.0  # CAL_REF_S / the calibration loop's time around the op
    error: str | None = None  # why the op failed
    wrong: bool = False  # a wrong answer, or a failure the CLI does not document

    @property
    def wall_n(self) -> float:
        return self.wall * self.speed

    @property
    def cpu_n(self) -> float:
        return self.cpu * self.speed


def load_package() -> dict:
    """The package's layer modules, imported from this checkout's sources."""
    if not (SRC / "packbounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no packbounds sources at {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {"packbounds": importlib.import_module("packbounds")}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"packbounds.{layer}")
    if SRC not in Path(modules["packbounds"].__file__).resolve().parents:
        raise SystemExit(f"error: packbounds was imported from outside {SRC}")
    return modules


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def setup_seconds(samples: int) -> tuple[float, float]:
    """Median time to import the CLI, numpy and scipy in fresh interpreters:
    (scaled to the reference host, raw)."""
    scaled, raw = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        t, cal = map(float, proc.stdout.split())
        scaled.append(t * CAL_REF_S / cal)
        raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def reset_caches(modules: dict) -> None:
    """Empty every memo the package keeps: ``lru_cache`` functions and
    module-level dicts named ``*CACHE`` (which hold the root memos)."""
    for mod in modules.values():
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif isinstance(obj, dict) and name.upper().endswith("CACHE"):
                obj.clear()


def execute(modules: dict, op, out: Outcome) -> None:
    """Run one op, timed, filling ``out``; CLI stdout/stderr are captured."""
    if op.api:
        fn = getattr(modules[op.api[0]], op.api[1])
        call = lambda: fn(*out.args)  # noqa: E731
    else:
        call = lambda: modules["cli"].main(list(op.argv))  # noqa: E731
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
        except Exception:  # the run must go on; the op is recorded as failed
            result = None
            se.write(traceback.format_exc())
        out.wall, out.cpu = time.perf_counter() - t0, time.process_time() - c0
    out.stdout, out.stderr = so.getvalue(), se.getvalue()
    if op.api:
        out.value, out.code = result, (None if result is None else 0)
        if result is not None:
            out.stdout = render(result)
    else:
        out.code = result


def judge(modules: dict, op, out: Outcome, outcomes: dict, verified: dict) -> None:
    """Mark the op failed on a traceback, a non-zero exit or a failed check.

    Exit 3 with a JSON diagnostic is the CLI's documented non-convergence
    path: the op failed but gave no wrong answer.  ``verified`` maps op
    labels to the digest of an output that passed its check earlier in the
    run; the same bytes again need no second check.
    """
    if out.error:
        return
    if out.code is None:
        out.error, out.wrong = "traceback: " + out.stderr.strip().splitlines()[-1], True
    elif out.code != 0:
        diag = out.stderr.strip().splitlines()[-1] if out.stderr.strip() else ""
        out.error = f"exit {out.code}: {diag}"
        out.wrong = out.code != 3 or not diag.startswith("{") or "Traceback" in out.stderr
    elif op.check is not None and verified.get(op.label) != digest(out.stdout):
        try:
            op.check(modules, out, outcomes)
        except Exception as exc:  # a check that cannot parse the output fails the op too
            out.error, out.wrong = f"check: {type(exc).__name__}: {exc}", True
        else:
            verified[op.label] = digest(out.stdout)


def run_pass(modules: dict, ops, verified: dict, rec: Recorder | None = None) -> list[Outcome]:
    outcomes: dict[str, Outcome] = {}  # by label, for checks that compare ops
    for i, op in enumerate(ops):
        reset_caches(modules)
        gc.collect()  # each op starts with empty GC generations, as in a new process
        out = Outcome()
        try:
            out.args = op.prepare(modules, outcomes) if op.prepare else ()
        except Skip as exc:
            out.error = f"skipped: {exc}"
        else:
            if rec is not None:
                rec.op, rec.op_thread[i] = i, threading.get_ident()
            cal = calibrate()
            try:
                execute(modules, op, out)
            finally:
                if rec is not None:
                    rec.op = None
            out.speed = CAL_REF_S / ((cal + calibrate()) / 2)
        if rec is not None:
            rec.op_wall[i] = out.wall
        judge(modules, op, out, outcomes, verified)
        outcomes[op.label] = out
    return list(outcomes.values())


def measure(modules: dict, ops, seconds: float, trace: bool):
    """Whole passes until ``seconds`` have elapsed.  With ``trace``, passes
    alternate untraced and traced, starting untraced, at least one of each.

    Returns (untraced passes, traced passes, per-layer metrics of each
    traced pass, the recorder holding the last traced pass's spans)."""
    plain, traced, layers, verified = [], [], [], {}
    rec = Recorder(modules) if trace else None
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            rec.reset()
            rec.install()
            try:
                traced.append(run_pass(modules, ops, verified, rec))
            finally:
                rec.uninstall()
            layers.append(layer_metrics(rec))
        else:
            plain.append(run_pass(modules, ops, verified))
        if time.perf_counter() - start >= seconds and (not trace or traced):
            return plain, traced, layers, rec


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least 10 of one pass's ops beyond it.
    A pass of 10 ops or fewer has no such percentile; its tail is reported
    at the median."""
    if ops_per_pass <= 10:
        return 50
    return (100 * (ops_per_pass - 10)) // ops_per_pass


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def pass_wall(p: list[Outcome]) -> float:
    return sum(o.wall for o in p)


def op_median_sum(passes, attr: str) -> float:
    """One pass's time, op by op: the sum over ops of each op's median
    across passes, so a slow spell in one pass does not shift the total."""
    return sum(statistics.median(getattr(o, attr) for o in col) for col in zip(*passes))


def end_to_end(passes, pct: int, setup: float) -> dict[str, float]:
    """Times scaled to the reference host.  Op latency percentiles pool
    every op run in every pass, in ms; a failed op counts as +infinity."""
    ops = [o for p in passes for o in p]
    latencies = [math.inf if o.error else o.wall_n * 1e3 for o in ops]
    return {
        "setup_s": setup,
        "wall_s": op_median_sum(passes, "wall_n"),
        "cpu_s": op_median_sum(passes, "cpu_n"),
        "op_p50_ms": percentile(latencies, 50),
        "op_tail_ms": percentile(latencies, pct),
        "ok_share": sum(not o.error for o in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, modules, ops, passes, setup_raw) -> dict:
    import numpy
    import scipy

    first = passes[0]
    digests = {op.label: digest(o.stdout)[:16] for op, o in zip(ops, first) if not o.error}
    unstable = sorted(
        op.label for p in passes[1:] for op, o in zip(ops, p)
        if not o.error and op.label in digests and digest(o.stdout)[:16] != digests[op.label]
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_ref_s": CAL_REF_S,
        "setup_raw_s": setup_raw,
        "pass_walls_s": [pass_wall(p) for p in passes],
        "pass_speed_median": [statistics.median(o.speed for o in p) for p in passes],
        "op_walls_s": {op.label: [p[i].wall for p in passes] for i, op in enumerate(ops)},
        "op_speeds": {op.label: [p[i].speed for p in passes] for i, op in enumerate(ops)},
        "ops_per_pass": len(ops),
        "tail_percentile": tail_percentile(len(ops)),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "op_digests": digests,
        "unstable_digests": sorted(set(unstable)),
        "op_failures": {op.label: o.error for op, o in zip(ops, first) if o.error},
    }


def run(args) -> tuple[dict, dict]:
    modules = load_package()
    ops = WORKLOADS[args.workload](args.seed)
    setup, setup_raw = (None, None) if args.trace else setup_seconds(SETUP_SAMPLES)
    plain, traced, layers, rec = measure(modules, ops, args.seconds, bool(args.trace))
    every = plain + traced
    flat = [o for p in every for o in p]
    if args.trace:
        values = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        values["trace.overhead_s"] = op_median_sum(traced, "wall_n") - op_median_sum(plain, "wall_n")
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        values = end_to_end(plain, tail_percentile(len(ops)), setup)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {
        "correct": not any(o.wrong for o in flat),
        "attempted": len(flat),
        "failed": sum(1 for o in flat if o.error),
        "metrics": metrics,
    }
    meta = metadata(args, modules, ops, every, setup_raw)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    if rec is not None:
        rec.write(OUT_DIR / f"{args.workload}-spans.csv")
    return meta, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    meta, result = run(args)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
