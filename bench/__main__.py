"""Command line of the benchmark.

::

    python3 -m bench --workload adhoc_hunt --seed 101 --seconds 10 --trace 0
    python3 -m bench                      # every workload, --runs (5) runs each + one traced run
    python3 -m bench --check              # every workload at 1/20 size; checks only
    python3 -m bench compare A.json B.json
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from bench.catalogue import ROOT, Catalogue


def bootstrap() -> None:
    """Fix the hash seed and put this checkout's ``src/`` first on the path."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order (and with it some timings) follows the hash
        # seed; re-execute this interpreter in place with a fixed one.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    sys.path.insert(0, str(ROOT / "src"))


def parser() -> argparse.ArgumentParser:
    cli = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("::")[0])
    cli.add_argument("--workload", help="run this one workload in this process")
    cli.add_argument("--seed", type=int, default=101, help="feeds every input generator")
    cli.add_argument("--seconds", type=float, help="measured seconds per run (BENCHMARK.json)")
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer spans")
    cli.add_argument("--scale", type=float, default=1.0, help="input size multiplier")
    cli.add_argument("--detail", type=Path, help="also write the run's full record here")
    cli.add_argument("--runs", type=int, default=5, help="suite: untraced runs per workload")
    cli.add_argument("--out", type=Path, help="suite/compare: result file (default bench/out/)")
    cli.add_argument("--check", action="store_true", help="small sizes, checks only")
    return cli


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from bench.compare import main as compare

        return compare(argv[1:])
    cli = parser()
    args = cli.parse_args(argv)
    bootstrap()
    catalogue = Catalogue.load()
    seconds = args.seconds if args.seconds is not None else catalogue.run_seconds
    if args.workload is not None:
        if args.workload not in catalogue.workloads:
            cli.error(f"unknown workload {args.workload!r}; one of {', '.join(catalogue.workloads)}")
        from bench.runner import run

        return run(
            args.workload, args.seed, seconds, bool(args.trace), args.scale, args.detail
        )
    from bench.suite import check, suite

    if args.check:
        return check(args.seed)
    return suite(args.seed, seconds, max(2, args.runs), args.out, args.scale)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
