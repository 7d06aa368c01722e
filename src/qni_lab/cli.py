"""Command-line interface: qni-lab <command> --scenario <path> --seeds <ints> --out <dir>."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import Diverged, RejectedInput
from .harness import COMMANDS, EXIT_USAGE, ExperimentConfig, default_scenario, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qni-lab",
        description="Quadratic-net identification lab: run experiments and bound-verification suites.",
    )
    p.add_argument("command", choices=COMMANDS, help="experiment to run")
    p.add_argument("--scenario", default=None, help="path to a JSON scenario (omit for the default)")
    p.add_argument("--seeds", default="0", help="comma-separated 64-bit seeds")
    p.add_argument("--out", default="qni_lab_out", help="output directory (QNI_LAB_OUT overrides)")
    p.add_argument("--parallelism", type=int, default=1, help="max concurrent runs")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.scenario is None:
        scenario = default_scenario(args.command)
    else:
        # OSError: a missing path or a directory; ValueError: not UTF-8, or not JSON
        try:
            scenario = json.loads(Path(args.scenario).read_text())
        except (OSError, ValueError) as exc:
            print(f"could not read scenario {args.scenario}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        seeds = tuple(int(s) for s in str(args.seeds).split(",") if s.strip() != "")
    except ValueError:
        print(f"could not parse seeds: {args.seeds!r}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(os.environ.get("QNI_LAB_OUT", args.out))
    try:
        config = ExperimentConfig(
            command=args.command,
            scenario=scenario,
            seeds=seeds,
            out_dir=out_dir,
            parallelism=args.parallelism,
        )
        return run(config)
    except RejectedInput as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Diverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # such as an --out path that names a file
        print(f"could not write output to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
