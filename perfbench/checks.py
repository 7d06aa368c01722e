"""Output checks and determinism digests for one benchmark operation.

These read only the files an operation wrote and never import `qni_lab`, so a
check does not share the code path whose result it judges.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Relative tolerance for comparing cum_regret with a running sum recomputed
# here: the CSV holds repr-rounded floats, so equal sums may differ in the
# last bits when summed in another order.
_CUM_RTOL = 1e-9


def digest_outputs(out_dir: Path) -> str:
    """SHA-256 over the data files acceptance criterion C14 compares.

    `*.csv` and `*.json` byte for byte, and `runs.jsonl` with each record's
    `wall_time_ms` removed.
    """
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*")):
        if path.suffix in (".csv", ".json"):
            h.update(path.name.encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        elif path.name == "runs.jsonl":
            records = []
            for line in path.read_text().strip().splitlines():
                rec = json.loads(line)
                rec.pop("wall_time_ms", None)
                records.append(rec)
            h.update(path.name.encode() + b"\0")
            h.update(json.dumps(records, sort_keys=True).encode())
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).glob("*") if p.is_file())


def check_outputs(command: str, scenario: dict, seed: int, out_dir: Path,
                  max_sup_gap: dict | None = None) -> list[str]:
    """Problems found in the files one `qni-lab <command>` run with one seed wrote.

    `max_sup_gap` caps the squared sup gaps a `transfer` run reports; it is
    required for `transfer`. An empty list means the outputs passed. Malformed
    files are reported as problems, never raised.
    """
    out_dir = Path(out_dir)
    try:
        payload = _payload(out_dir / "runs.jsonl", seed)
        if command == "bandit":
            return check_bandit_trace(out_dir / f"trace_{seed}.csv", scenario, payload)
        if command == "modules":
            return _check_row_count(out_dir / f"modules_{seed}.csv", int(scenario["n_mc"]))
        if command == "verify":
            return check_verify_rows(out_dir / "checks.csv", seed)
        if command == "transfer":
            if max_sup_gap is None:
                raise ValueError("no max_sup_gap given for a transfer run")
            return check_transfer_gaps(payload, max_sup_gap)
        return []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _payload(path: Path, seed: int) -> dict:
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    mine = [r for r in records if r["seed"] == seed]
    if len(mine) != 1:
        raise ValueError(f"{path.name} has {len(mine)} records for seed {seed}")
    return mine[0]["payload"]


def check_bandit_trace(path: Path, scenario: dict, payload: dict) -> list[str]:
    """The trace (written with trace_stride 1) has T rows, m explore rows with
    m < T/2, cum_regret is the running sum of inst_regret, and the final
    regret is within the bound."""
    T = int(scenario["T"])
    m = int(payload["m"])
    problems = []
    rows = explore = 0
    running = 0.0
    bad_sum = None
    last_cum = math.nan
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        i_t, i_phase = header.index("t"), header.index("phase")
        i_inst, i_cum = header.index("inst_regret"), header.index("cum_regret")
        for row in reader:
            rows += 1
            if row[i_phase] == "explore":
                explore += 1
            running += float(row[i_inst])
            last_cum = float(row[i_cum])
            if bad_sum is None and abs(last_cum - running) > _CUM_RTOL * max(1.0, abs(running)):
                bad_sum = row[i_t]
    if rows != T:
        problems.append(f"trace has {rows} rows, expected T={T}")
    if explore != m:
        problems.append(f"trace has {explore} explore rows, runs.jsonl says m={m}")
    if not 2 * m < T:
        problems.append(f"m={m} is not below T/2={T / 2}")
    if bad_sum is not None:
        problems.append(f"cum_regret is not the running sum of inst_regret at t={bad_sum}")
    final, bound = float(payload["final_cum_regret"]), float(payload["regret_bound"])
    if not math.isclose(last_cum, final, rel_tol=_CUM_RTOL):
        problems.append(f"last cum_regret {last_cum} != final_cum_regret {final}")
    if not final <= bound:
        problems.append(f"final_cum_regret {final} exceeds regret_bound {bound}")
    return problems


def check_transfer_gaps(payload: dict, max_sup_gap: dict) -> list[str]:
    """Each capped squared sup gap in runs.jsonl is finite and at most its cap."""
    problems = []
    for key, cap in max_sup_gap.items():
        gap = float(payload[key])
        if not gap <= cap:  # also true for NaN
            problems.append(f"{key} {gap:.6g} exceeds its cap {cap:g}")
    return problems


def check_verify_rows(path: Path, seed: int) -> list[str]:
    """Every check row of this seed in checks.csv passed, and there is one."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if int(r["seed"]) == seed]
    if not rows:
        return [f"{path.name} has no rows for seed {seed}"]
    return [f"check {r['check']} failed" for r in rows if r["passed"] != "1"]


def _check_row_count(path: Path, expected: int) -> list[str]:
    with open(path, newline="") as fh:
        rows = sum(1 for _ in csv.DictReader(fh))
    return [] if rows == expected else [f"{path.name} has {rows} rows, expected {expected}"]
