"""Smoke test of the benchmark itself; exits 1 if any expectation fails.

    python3 perfbench/smoke.py

Runs a shrunk scenario of every workload through `run.main`, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with its
unit. Then checks that the output checker flags faults injected into copies of
real outputs: a bandit trace whose running sum is broken, one with a row
missing, a checks.csv holding a failed row, and a transfer runs.jsonl whose
sup gaps are inflated.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from checks import check_bandit_trace, check_outputs, check_verify_rows  # noqa: E402
from workloads import TINY_OVERRIDES, WORKLOADS  # noqa: E402

SMOKE = run.WORK / "smoke"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_metric_lines(workload: str, trace: int, declared: list[dict]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                           "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    expect(status == 0, f"{workload} trace={trace}: exit status 0")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace={trace}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: no failed operation")
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           f"{workload} trace={trace}: metrics are exactly the declared {len(declared)}")
    for m in declared:
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
        expect(bool(printed) and printed[0].split()[-1] == m["unit"]
               and metrics.get(m["name"], {}).get("unit") == m["unit"],
               f"{workload} trace={trace}: {m['name']} printed with unit {m['unit']}")
    if trace == 0:
        expect(any(ln.startswith("fail_ratio ") for ln in lines), f"{workload}: fail_ratio printed")


def run_tiny(command: str, scenario: dict, seed: int, out: Path) -> None:
    from qni_lab import harness

    with contextlib.redirect_stdout(io.StringIO()):
        status = harness.run(harness.ExperimentConfig(command, scenario, (seed,), out))
    expect(status == 0, f"tiny {command} run exits 0")


def rewrite_csv(src: Path, dst: Path, edit) -> None:
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))


def check_fault_injection() -> None:
    bandit = {**WORKLOADS["bandit-long-trace"]["scenario"], **TINY_OVERRIDES["bandit-long-trace"]}
    out = SMOKE / "bandit"
    run_tiny("bandit", bandit, 5, out)
    expect(check_outputs("bandit", bandit, 5, out) == [], "clean bandit outputs pass")
    payload = json.loads((out / "runs.jsonl").read_text().splitlines()[0])["payload"]
    trace = out / "trace_5.csv"

    def bump_cum(rows):
        rows[10][4] = repr(float(rows[10][4]) + 1e-3)
        return rows

    broken = SMOKE / "trace_bumped.csv"
    rewrite_csv(trace, broken, bump_cum)
    expect(any("running sum" in p for p in check_bandit_trace(broken, bandit, payload)),
           "corrupted cum_regret is flagged")
    short = SMOKE / "trace_short.csv"
    rewrite_csv(trace, short, lambda rows: rows[:-1])
    expect(any("rows" in p for p in check_bandit_trace(short, bandit, payload)),
           "missing trace row is flagged")
    over = dict(payload, regret_bound=payload["final_cum_regret"] / 2)
    expect(any("exceeds regret_bound" in p for p in check_bandit_trace(trace, bandit, over)),
           "regret above its bound is flagged")

    verify = {**WORKLOADS["verify-suite"]["scenario"], **TINY_OVERRIDES["verify-suite"]}
    out = SMOKE / "verify"
    run_tiny("verify", verify, 7, out)
    expect(check_outputs("verify", verify, 7, out) == [], "clean verify outputs pass")

    def fail_one(rows):
        rows[3][2] = "0"
        return rows

    failed = SMOKE / "checks_failed.csv"
    rewrite_csv(out / "checks.csv", failed, fail_one)
    expect(len(check_verify_rows(failed, 7)) == 1, "checks.csv with a failed row is flagged")

    transfer = {**WORKLOADS["transfer-d10"]["scenario"], **TINY_OVERRIDES["transfer-d10"]}
    caps = WORKLOADS["transfer-d10"]["max_sup_gap"]
    out = SMOKE / "transfer"
    run_tiny("transfer", transfer, 3, out)
    expect(check_outputs("transfer", transfer, 3, out, caps) == [], "clean transfer outputs pass")
    for key, bad in (("gold_sup_gap", 10 * caps["gold_sup_gap"]), ("proxy_sup_gap", float("nan"))):
        inflated = SMOKE / f"transfer_{key}"
        shutil.copytree(out, inflated)
        record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
        record["payload"][key] = bad
        (inflated / "runs.jsonl").write_text(json.dumps(record) + "\n")
        expect(any(key in p for p in check_outputs("transfer", transfer, 3, inflated, caps)),
               f"transfer runs.jsonl with {key}={bad} is flagged")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, override in TINY_OVERRIDES.items():
        WORKLOADS[name]["scenario"] = {**WORKLOADS[name]["scenario"], **override}
    for name in WORKLOADS:
        check_metric_lines(name, 0, declared["end_to_end"])
        check_metric_lines(name, 1, declared["per_layer"])
    shutil.rmtree(SMOKE, ignore_errors=True)
    try:
        check_fault_injection()
    finally:
        shutil.rmtree(SMOKE, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
