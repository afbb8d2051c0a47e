"""Does the benchmark agree with itself?  Two checks on unchanged code.

- :func:`two_sets` — every workload twice, the second set in reverse
  order: each end-to-end metric's second reading may be worse than its
  first by at most the metric's bound.
- :func:`seed_spread` — every workload on N seeds: the distance between
  the first and third quartile, as a share of the median, must stay
  within the bound (``setup_s`` excepted: it is reported, not judged).

A pair outside its bound is listed as **unresolved** — the benchmark
cannot tell a change of that size from noise — never as unchanged.  Both
write ``bench/out/agreement.json`` and exit non-zero on any unresolved
pair or incorrect reply.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

from bench import metrics, stats
from bench.harness import OUT_DIR, host_stamp, run_workload


def _values(result: dict[str, Any]) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def _finish(kind: str, rows: list[dict[str, Any]], correct: bool) -> int:
    unresolved = [r for r in rows if r["unresolved"]]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "agreement.json", "w") as fh:
        json.dump({"kind": kind, "host": host_stamp(), "correct": correct,
                   "rows": rows}, fh, indent=1)
    print(f"{len(rows)} metric x workload pairs, {len(unresolved)} unresolved, "
          f"replies {'all correct' if correct else 'INCORRECT'}")
    for r in unresolved:
        print(f"  unresolved: {r['workload']} {r['metric']}")
    return 0 if correct and not unresolved else 1


def two_sets(names: list[str], seed: int, seconds: float) -> int:
    first = {n: run_workload(n, seed, seconds, 0) for n in names}
    second = {n: run_workload(n, seed, seconds, 0) for n in reversed(names)}
    rows = []
    print(f"{'workload':20s} {'metric':18s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for n in names:
        a, b = _values(first[n]), _values(second[n])
        for m in metrics.END_TO_END:
            worse = stats.worse_by(a[m.name], b[m.name], m.better)
            # Order is arbitrary on unchanged code: a second set that reads
            # *better* by more than the bound disagrees just as much.
            unresolved = abs(worse) > m.bound
            rows.append({"workload": n, "metric": m.name, "first": a[m.name],
                         "second": b[m.name], "worse_by": worse, "bound": m.bound,
                         "unresolved": unresolved})
            flag = "  UNRESOLVED" if unresolved else ""
            print(f"{n:20s} {m.name:18s} {a[m.name]:12.4f} {b[m.name]:12.4f} "
                  f"{worse:+9.3f} {m.bound:6.2f}{flag}")
    correct = all(r["correct"] for r in (*first.values(), *second.values()))
    return _finish("two_sets", rows, correct)


def seed_spread(names: list[str], seed: int, count: int, seconds: float) -> int:
    if count < 2:
        raise SystemExit("--spread needs at least 2 seeds")
    rows = []
    correct = True
    print(f"{'workload':20s} {'metric':18s} {'median':>12s} {'iqr/median':>11s} "
          f"{'bound':>6s}")
    for n in names:
        runs = [run_workload(n, seed + k, seconds, 0) for k in range(count)]
        correct = correct and all(r["correct"] and r["failed"] == 0 for r in runs)
        for m in metrics.END_TO_END:
            values = [_values(r)[m.name] for r in runs]
            spread = stats.rel_iqr(values)
            unresolved = m.name != "setup_s" and spread > m.bound
            rows.append({"workload": n, "metric": m.name, "values": values,
                         "median": statistics.median(values), "spread": spread,
                         "bound": m.bound, "unresolved": unresolved})
            flag = "  UNRESOLVED" if unresolved else ""
            print(f"{n:20s} {m.name:18s} {statistics.median(values):12.4f} "
                  f"{spread:11.4f} {m.bound:6.2f}{flag}", flush=True)
    return _finish("seed_spread", rows, correct)
