"""Fast self-test of the benchmark on tiny variants of each workload.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, that the
seed's known LP failure is counted without a wrong answer, that traced
spans account for each op's wall time, and that a corrupted output is
counted as a failed op.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import run
import spans
import workloads

TINY = {
    "euclid_table": lambda seed: workloads.euclid_table(seed, hi=40),
    "lp_sweep": lambda seed: workloads.lp_sweep(seed, ns=(4, 8, 48), degrees=(10,), transfers=(4,)),
    "hyp_mix": lambda seed: workloads.hyp_mix(
        seed, overlap_ns=(3,), radii=((1.0, 2.0),), mc_ns=(3,), mc_samples=20000,
        hyp_ns=(8,), hyp_rs=(1.0,),
    ),
}
# tiny ops expected to fail through the CLI's documented exit 3
KNOWN_FAILURES = {"euclid_table": set(), "lp_sweep": {"lp n=48 d=10"}, "hyp_mix": set()}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print("FAIL", message)


@contextmanager
def patched(owner, attr, make):
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def check_spec(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END, f"end_to_end in BENCHMARK.json differs from run.END_TO_END: {e2e}")
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expect(layer == spans.PER_LAYER, "per_layer in BENCHMARK.json differs from spans.PER_LAYER")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "workloads in BENCHMARK.json differ from workloads.WORKLOADS")
    notes = json.loads((run.ROOT / "bench" / "expectations.json").read_text())
    mapped = {m for group in notes["layer_map"] for m in group["metrics"]}
    expect(mapped == set(spans.PER_LAYER), f"layer_map misses {set(spans.PER_LAYER) - mapped}")
    for name, build in workloads.WORKLOADS.items():
        pct = run.tail_percentile(len(build(1)))
        expect(notes["tail_percentile"][name] == pct, f"{name}: tail percentile is {pct}")


def check_accounting(rec: spans.Recorder, name: str) -> None:
    """Root spans on the op's thread, each its self time plus its children,
    cover the op's wall time."""
    kids: dict[int, float] = {}
    for s in rec.spans:
        expect(s.t1 - s.t0 - s.child_s >= -1e-9, f"{name}: negative self time in {s.name}")
        if s.parent is not None and s.parent.tid == s.tid:
            kids[s.parent.id] = kids.get(s.parent.id, 0.0) + s.t1 - s.t0
    for op, wall in rec.op_wall.items():
        roots = [s for s in rec.spans
                 if s.op == op and s.parent is None and s.tid == rec.op_thread[op]]
        covered = sum((s.t1 - s.t0 - s.child_s) + kids.get(s.id, 0.0) for s in roots)
        expect(abs(wall - covered) <= 0.02 * wall + 1e-3,
               f"{name} op {op}: spans cover {covered:.6f} s of {wall:.6f} s")


def check_workload(modules: dict, name: str, setup: float) -> None:
    ops = TINY[name](7)
    plain, traced, layers, rec = run.measure(modules, ops, 0, trace=True)
    for passes in (plain, traced):
        (outcomes,) = passes
        failed = {op.label for op, o in zip(ops, outcomes) if o.error}
        expect(failed == KNOWN_FAILURES[name], f"{name}: failed ops {failed}")
        expect(not any(o.wrong for o in outcomes), f"{name}: wrong answers {[o.error for o in outcomes]}")
    e2e = run.end_to_end(plain, run.tail_percentile(len(ops)), setup)
    expect(set(e2e) == set(run.END_TO_END), f"{name}: end-to-end metrics {sorted(e2e)}")
    expect(set(layers[0]) | {"trace.overhead_s"} == set(spans.PER_LAYER),
           f"{name}: per-layer metrics differ from spans.PER_LAYER")
    expect(0.98 <= layers[0]["trace.coverage"] <= 1.0, f"{name}: coverage {layers[0]['trace.coverage']}")
    check_accounting(rec, name)
    print(f"ok   {name}: {len(ops)} ops, ok_share {e2e['ok_share']:.3f}, "
          f"wall {e2e['wall_s']:.3f} s, coverage {layers[0]['trace.coverage']:.5f}")


def check_corruption(modules: dict) -> None:
    """A changed byte in the table and a 1e-6 relative change in an overlap
    must each fail their op and mark the run incorrect."""

    def extra_byte(main):
        def corrupt(argv):
            code = main(argv)
            sys.stdout.write(" ")
            return code
        return corrupt

    def nudged(fn):
        return lambda *a, **kw: fn(*a, **kw) * (1 + 1e-6)

    cases = (
        ("euclid_table", modules["cli"], "main", extra_byte),
        ("hyp_mix", modules["hyperbolic"], "overlap_finite", nudged),
    )
    for name, owner, attr, make in cases:
        ops = TINY[name](7)
        with patched(owner, attr, make):
            (outcomes,) = run.measure(modules, ops, 0, trace=False)[0]
        e2e = run.end_to_end([outcomes], 100, 0.0)
        bad = [o for o in outcomes if o.error]
        expect(bool(bad) and all(o.wrong for o in bad), f"{name}: corruption not caught")
        expect(e2e["ok_share"] == 1 - len(bad) / len(ops), f"{name}: ok_share {e2e['ok_share']}")
        print(f"ok   corrupted {name}: {len(bad)} of {len(ops)} ops failed, "
              f"ok_share {e2e['ok_share']:.3f}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    modules = run.load_package()
    setup = run.setup_seconds(1)[0]
    for name in TINY:
        check_workload(modules, name, setup)
    check_corruption(modules)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
