"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0] \
        [--out summary.json] [--logs DIR]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  Runs
are sequential; a run that exits non-zero or reports ``correct: false`` is
listed and stops the collection with exit code 1.  ``--logs DIR`` keeps the
full standard output of each run (measured times, host slowdowns) there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    parser.add_argument("--logs", default=None, help="keep each run's standard output here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if args.logs:
                Path(args.logs).mkdir(parents=True, exist_ok=True)
                log = Path(args.logs) / f"{workload}-seed{seed}-trace{args.trace}.log"
                log.write_text(proc.stdout + proc.stderr, encoding="utf-8")
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            result = json.loads(last) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "n": len(vals)}
            bound = bounds.get(name)
            print(f"  {workload:<13} {name:<40} median {med:.5g}  q1 {q1:.5g}  "
                  f"q3 {q3:.5g}  spread {spread:.4f}"
                  + (f"  bound {bound}" if bound is not None else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
