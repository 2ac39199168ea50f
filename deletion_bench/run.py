"""Deletion benchmark: times the `dvwu run` code path on one workload.

Run from the repository root:

    python3 deletion_bench/run.py --workload knn-dynamic --seed 1 --seconds 35 --trace 0
    python3 deletion_bench/run.py --seed 1        # every workload, one process each

`--seconds` defaults to `run_seconds` in BENCHMARK.json.  It imports `dvwu`
from `src/` next to this directory and exits with code 2 when those sources
are missing.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics are the
end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
The lines before it name every metric with its unit and the environment.  The
full result, and with `--trace 1` the spans, go to `deletion_bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("knn-dynamic", "knn-dynamic-tied", "stream-static")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, help="also write the full result here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dvwu" / "__init__.py").is_file():
        print(f"error: no dvwu sources at {SRC / 'dvwu'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return _run_all(args)
    # fixed before numpy loads, so every run uses the same BLAS thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import dvwu
    import dvwu.cli
    if not Path(dvwu.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported dvwu from {dvwu.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from bench import END_TO_END_UNITS, PER_LAYER_UNITS, run_workload
    from envinfo import environment

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    result = run_workload(dvwu, args.workload, args.seed, args.seconds,
                          bool(args.trace), run_dir)
    result["environment"] = environment()
    for path in filter(None, (run_dir / "result.json", args.result)):
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, default=str)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = result["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {result['repetitions']}  rounds {result['rounds_timed']}  "
          f"tail = p{result['tail_percentile']}")
    unscaled = {} if args.trace else result["end_to_end_unscaled"]
    for name, unit in units.items():
        extra = f"   (unscaled {unscaled[name]:.6f})" if name in unscaled else ""
        print(f"  {name:28s} {values.get(name, float('nan')):14.6f} {unit}{extra}")
    print(f"  calibration kernels, median ms: {json.dumps(result['calibration_ms'])}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for problem in result["problems"][:5]:
        print(f"  problem: {problem}")
    if args.trace:
        print(f"  trace summary: {json.dumps(result['trace_summary'])}")
        print(f"  traced rep_s {result['end_to_end'].get('rep_s', float('nan')):.4f} s")
    print(f"  environment: {json.dumps(result['environment'])}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process; prints one summary per workload."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
