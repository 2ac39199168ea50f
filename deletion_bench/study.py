"""Run the benchmark on several seeds per workload and keep every result.

    python3 deletion_bench/study.py --set A --seeds 1-10 [--trace 0]

Runs go one after another, each in its own process, through the same command
as BENCHMARK.json, on every workload it names and at its run_seconds.
Results land in deletion_bench/out/study/<set>/, and the quartiles of every
metric are printed at the end (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--set", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads(compare.BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = BENCH_DIR / "out" / "study" / args.set
    out.mkdir(parents=True, exist_ok=True)
    for seed in _seeds(args.seeds):
        for workload in workloads:
            full = out / f"{workload}-s{seed}-t{args.trace}.full"
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace),
                                     "--result", str(full)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result.update(workload=workload, seed=seed, trace=args.trace)
            (out / f"{workload}-s{seed}-t{args.trace}.json").write_text(json.dumps(result))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    return compare.main([str(out)])


if __name__ == "__main__":
    sys.exit(main())
