"""Check result sets of the benchmark against the bounds in BENCHMARK.json.

    python3 deletion_bench/compare.py deletion_bench/out/study/A deletion_bench/out/study/B

Each set is a directory of results written by `study.py`, one JSON file per
run.  For every workload and end-to-end metric it prints the quartiles of
each set and checks, as the bounds in BENCHMARK.json require:

* the spread (third minus first quartile, over the median) of each set is
  within the metric's bound;
* the second set's median is not worse than the first's by more than the
  bound;
* the share of failed operations is the same in both sets.

With one set it prints the quartiles and spreads only.  Exits 1 when a check
fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory):
    """{(workload, trace): [result, ...]} from one set's directory."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["trace"])].append(result)
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def failed_share(results):
    return (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))


def describe(runs, metric_names):
    """Rows of (workload, metric, q1, median, q3, spread, runs)."""
    rows = []
    for (workload, trace), results in sorted(runs.items()):
        for name in metric_names[trace]:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, q2, q3 = quartiles(values)
            rows.append((workload, trace, name, q1, q2, q3, spread(values), len(values)))
    return rows


def main(argv) -> int:
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    names = {0: list(e2e), 1: [m["name"] for m in spec["per_layer"]]}
    sets = [load_set(d) for d in argv]
    if not sets:
        print(__doc__)
        return 2
    ok = True
    for label, runs in zip(argv, sets):
        print(f"## {label}")
        print("| workload | trace | metric | q1 | median | q3 | spread | bound | runs |")
        print("|---|---|---|---|---|---|---|---|---|")
        for workload, trace, name, q1, q2, q3, sp, n in describe(runs, names):
            bound = e2e[name]["bound"] if trace == 0 else None
            flag = ""
            if bound is not None and sp > bound:
                flag, ok = " FAIL", False
            print(f"| {workload} | {trace} | {name} | {q1:.6g} | {q2:.6g} | {q3:.6g} | "
                  f"{sp:.4f}{flag} | {bound if bound is not None else ''} | {n} |")
        for (workload, trace), results in sorted(runs.items()):
            failed, attempted = failed_share(results)
            print(f"failed {workload} trace {trace}: {failed} of {attempted}; "
                  f"correct in {sum(r['correct'] for r in results)} of {len(results)} runs")
    if len(sets) == 2:
        first, second = sets
        print("## second set against first")
        for key in sorted(set(first) & set(second)):
            workload, trace = key
            a, b = failed_share(first[key]), failed_share(second[key])
            if a[0] * b[1] != b[0] * a[1]:
                ok = False
                print(f"FAIL {workload} trace {trace}: failed share {a} vs {b}")
            if trace:
                continue
            for name, m in e2e.items():
                ma = statistics.median(r["metrics"][name]["value"] for r in first[key])
                mb = statistics.median(r["metrics"][name]["value"] for r in second[key])
                change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                flag = ""
                if change > m["bound"]:
                    flag, ok = " FAIL", False
                print(f"{workload} {name}: median {ma:.6g} -> {mb:.6g}, "
                      f"worse by {change:+.4f} (bound {m['bound']}){flag}")
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
