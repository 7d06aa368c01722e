"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads transfer-d10,verify-suite --seeds 1-10 [--trace 0] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, with
BENCHMARK.json's run_seconds. For each metric, declared or only printed, it
prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median. `--out` also writes
every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900, check=False,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # Also summarise the figures printed but not declared (raw wall
            # times, fail_ratio), to compare them with the declared ones.
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 3 and not line.startswith(("#", "op ")):
                    result["metrics"].setdefault(parts[0], {"value": float(parts[1]), "unit": parts[2]})
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} {values}", flush=True)
        names = runs[0]["metrics"]
        summary = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **summarise([r["metrics"][name]["value"] for r in runs])}
                   for name in names}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread} (n={s['n']})", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
