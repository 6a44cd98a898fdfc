"""Run the benchmark for several seeds and summarise each metric.

    python3 bench/report.py                       # every workload, one seed
    python3 bench/report.py --seeds 10 --workloads lp_sweep --trace 0

Each run is a fresh ``bench/run.py`` process, with seeds 1, 2, ... and
the run length from ``BENCHMARK.json``.  Per workload and metric the
table gives the median, the quartiles, the spread (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives the quartiles, and the bound
from ``BENCHMARK.json``; ``wide`` marks a spread above a third of it.
Raw results go to ``.bench_out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw = {}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600, cwd=ROOT, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        raw[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={[(r['failed'], r['attempted']) for r in runs]}")
        print(f"  {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "wide" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {m['unit']} {flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
