"""qni-lab benchmark: one workload, a closed loop of `qni-lab` operations.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload transfer-d10 --seed 1 --seconds 26 --trace 0

One operation is `harness.run(ExperimentConfig(command, scenario, (seed,),
out_dir))` with one seed: the call `qni-lab <command>` makes. Operations run
one at a time in this process, parallelism 1, with BLAS pinned to one thread.
Operation seeds are derived from `--seed`; the timed loop starts operations
until their summed wall time, with the reference bursts between them, reaches
`--seconds`. A reference burst (perfbench/reference.py) runs before the first
operation and after each one, and the run's cost per operation is the median
operation CPU time over the median burst time. After every operation,
untimed, its output files are checked (perfbench/checks.py) and digested,
and the digest is printed so two commits' results can be compared. Set-up time is measured in
fresh interpreters before the first operation.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each seed twice,
untraced then traced, fails the operation if the two digests differ, and
reports per-layer self time and counts per operation (perfbench/tracer.py)
plus the tracing overhead. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: the loop is single-process, and on a shared 2-core box a
# second thread adds more run-to-run noise than speed.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before anything imports numpy (reference.py does), since OpenBLAS reads
# these once, when it loads.
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

# Set-up is measured in fresh interpreters, as many times as this, and the
# fastest reported: the usual estimator for import time, and the one least
# moved by other tenants' load.
SETUP_REPEATS = 11

sys.path.insert(0, str(HERE))
from checks import check_outputs, digest_outputs, output_bytes  # noqa: E402
from reference import burst  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "seed_cost_p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Functions whose self time (resp. call count) is a per-layer metric of its own.
PER_LAYER_FUNCTIONS = (
    "qnn_core.train_gd", "qnn_core.generate_dataset", "module_net.sample_word",
    "module_net.compose", "harness.write_csv", "transfer.fit_gold_constrained",
)
PER_LAYER_CALLS = ("qnn_core.forward", "module_net.parse")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def operation_seeds(workload: str, seed: int) -> list[int]:
    """Distinct 31-bit operation seeds, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    seeds = dict.fromkeys(rng.getrandbits(31) for _ in range(1000))
    return list(seeds)


def setup_probe(workload: str) -> float:
    """Time to import qni_lab and build and validate the workload's config."""
    t0 = time.perf_counter()
    from qni_lab import harness

    spec = WORKLOADS[workload]
    harness.ExperimentConfig(spec["command"], spec["scenario"], (0,), WORK / workload)
    return time.perf_counter() - t0


def measure_setup(workload: str) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", "0", "--seconds", "1"],
            capture_output=True, text=True, timeout=30, check=False, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs operations of one workload and checks what they wrote."""

    def __init__(self, workload: str):
        from qni_lab import harness

        self.harness = harness
        self.workload = workload
        self.command = WORKLOADS[workload]["command"]
        self.scenario = WORKLOADS[workload]["scenario"]
        self.max_sup_gap = WORKLOADS[workload].get("max_sup_gap")
        self.attempted = 0
        self.failed = 0
        self.out_bytes: list[int] = []

    def run(self, seed: int, label: str) -> tuple[float, float, str | None, bool]:
        """One operation; returns (wall seconds, CPU seconds, output digest, passed)."""
        out = WORK / self.workload / label
        shutil.rmtree(out, ignore_errors=True)
        problems = []
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = self.harness.run(
                    self.harness.ExperimentConfig(self.command, self.scenario, (seed,), out)
                )
        except Exception as exc:  # an operation that raises is a failed operation
            status = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        digest = None
        if status is not None:
            if status != 0:
                problems.append(f"exit status {status}")
            problems += check_outputs(self.command, self.scenario, seed, out, self.max_sup_gap)
            digest = digest_outputs(out)
            self.out_bytes.append(output_bytes(out))
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.failed += bool(problems)
        verdict = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"op {label} seed {seed} wall_s {wall:.4f} cpu_s {cpu:.4f} "
              f"digest {(digest or '-')[:16]} {verdict}", flush=True)
        return wall, cpu, digest, not problems


def end_to_end(args, seeds: list[int]) -> tuple[Runner, dict, list[str]]:
    setup_times = measure_setup(args.workload)
    runner = Runner(args.workload)
    refs = [burst()]
    walls, cpus, passed = [], [], 0
    while not walls or sum(walls) + sum(refs) < args.seconds:
        wall, cpu, _, ok = runner.run(seeds[len(walls)], f"op{len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
        passed += ok
        refs.append(burst())
    ref = statistics.median(refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "seed_cost_p50": statistics.median(cpus) / ref,
        "setup_s": min(setup_times),
        "peak_rss_mb": rss_mb,
    }
    notes = [
        f"# seed_cost_p50 over {len(cpus)} operations (CPU s median {statistics.median(cpus):.4f}, "
        f"min {min(cpus):.4f}, max {max(cpus):.4f}) and {len(refs)} reference bursts "
        f"(median {1e3 * ref:.4f} ms, min {1e3 * min(refs):.4f}, max {1e3 * max(refs):.4f})",
        # Raw wall-time figures, unbounded: they move with the host's load.
        f"seeds_per_s {passed / sum(walls):.6g} 1/s",
        f"seed_s_p50 {statistics.median(walls):.6g} s",
        f"# setup_s fastest of {len(setup_times)}: " + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    return runner, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(args, seeds: list[int]) -> tuple[Runner, dict, list[str]]:
    from tracer import LAYERS, Tracer

    runner = Runner(args.workload)
    tracer = Tracer()
    span_cost = tracer.span_cost()
    plain, traced = [], []
    while sum(plain) + sum(traced) < args.seconds:
        i = len(traced)
        wall_u, _, digest_u, _ = runner.run(seeds[i], f"op{i}")
        tracer.op_id = i
        tracer.install()
        try:
            wall_t, _, digest_t, _ = runner.run(seeds[i], f"op{i}-traced")
        finally:
            tracer.uninstall()
        if digest_u is not None and digest_t is not None and digest_u != digest_t:
            runner.failed += 1
            print(f"op {i} seed {seeds[i]} FAILED: traced digest differs", flush=True)
        plain.append(wall_u)
        traced.append(wall_t)
    spans_path = WORK / f"spans-{args.workload}.csv"
    tracer.write_spans(spans_path)

    s = tracer.summary(span_cost)
    n_ops = len(traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (s["self_s"].get(layer, 0.0) / n_ops, "s/op")
        metrics[f"{layer}.calls"] = (s["calls"].get(layer, 0) / n_ops, "count/op")
    for name in PER_LAYER_FUNCTIONS:
        metrics[f"{name}.self_s"] = (s["self_s"].get(name, 0.0) / n_ops, "s/op")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (s["calls"].get(name, 0) / n_ops, "count/op")
    metrics["qnn_core.gd_iters"] = (s["gd_iters"] / n_ops, "count/op")
    metrics["qnn_core.gd_converged_ratio"] = (s["gd_converged"] / max(s["fits"], 1), "ratio")
    metrics["harness.out_bytes"] = (statistics.mean(runner.out_bytes) if runner.out_bytes else 0.0,
                                    "B/op")
    # traced seeds_per_s / untraced seeds_per_s over the same seeds
    metrics["trace.overhead_ratio"] = (sum(plain) / sum(traced), "ratio")

    total = sum(s["self_s"].get(layer, 0.0) for layer in LAYERS) or 1.0
    raw_total = sum(s["raw_self_s"].get(layer, 0.0) for layer in LAYERS) or 1.0
    notes = [f"# traced {n_ops} operations; spans written to {spans_path.relative_to(ROOT)}",
             f"# wrapper cost outside its span {1e9 * span_cost:.0f} ns per call, "
             "taken out of the caller's self time (raw share keeps it)"]
    for layer in sorted(LAYERS, key=lambda name: -s["self_s"].get(name, 0.0)):
        share = s["self_s"].get(layer, 0.0) / total
        raw_share = s["raw_self_s"].get(layer, 0.0) / raw_total
        notes.append(f"# self-time share {layer:<10} {100 * share:6.2f}% (raw {100 * raw_share:6.2f}%)  "
                     f"calls/op {s['calls'].get(layer, 0) / n_ops:.0f}")
    return runner, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qni_lab" / "__init__.py").is_file():
        print(f"benchmark: no qni_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(f"{setup_probe(args.workload):.9f}")
        return 0

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    seeds = operation_seeds(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    runner, metrics, notes = measure(args, seeds)
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    fail_ratio = runner.failed / runner.attempted
    notes.append(f"# {runner.failed} failed of {runner.attempted} attempted operations")
    notes.append(f"# BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}, parallelism 1")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {fail_ratio:.6g} ratio")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
