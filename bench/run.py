"""``python -m bench.run`` — the repo's benchmark, one command.

    python -m bench.run                       # the three gated workloads
    python -m bench.run --workload serve_saturate_32   # the fourth, by name
    python -m bench.run --workload single_224 --seed 3 --seconds 20
    python -m bench.run --workload serve_steady_32 --trace 1
    python -m bench.run --agreement           # two sets, alternating order
    python -m bench.run --spread 10           # ten seeds per workload

Each workload runs in fresh processes (see ``bench.harness``).  Every
metric is printed by name with its unit, the result is written to
``bench/out/<workload>.json`` stamped with the host, and the last line of
standard output is one JSON object.  Exit status is non-zero when a reply
differed from the reference ``Executor``, when a worker failed, or under
``REPRO_SANITIZE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from bench import ROOT
from bench.harness import print_result, run_workload
from bench.workloads import GATED, WORKLOADS


def default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def last_line(results: list[dict[str, Any]]) -> dict[str, Any]:
    """The driver's result object; metric names gain a workload prefix
    only when several workloads ran in one command."""
    many = len(results) > 1
    merged: dict[str, Any] = {}
    for r in results:
        for name, m in r["metrics"].items():
            merged[f"{r['workload']}.{name}" if many else name] = m
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.run", description="The repo's benchmark, one command."
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", "--duration", type=float, dest="seconds",
                        help="measured seconds per run (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--agreement", action="store_true",
                        help="run every workload twice, alternating order, and compare")
    parser.add_argument("--spread", type=int, metavar="N",
                        help="run every workload on N seeds and report quartile spreads")
    args = parser.parse_args(argv)

    try:
        from repro.concurrency.locks import sanitizer_enabled
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if sanitizer_enabled():
        print("bench: refusing to measure under REPRO_SANITIZE", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = [args.workload] if args.workload else [w.name for w in GATED]
    if args.agreement or args.spread:
        from bench import agreement

        if args.agreement:
            return agreement.two_sets(names, args.seed, args.seconds)
        return agreement.seed_spread(names, args.seed, args.spread, args.seconds)

    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print_result(result)
        results.append(result)
    final = last_line(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
