"""Run the repo benchmark: ``python3 perfbench/run.py [--workload NAME] ...``.

With ``--workload`` it runs that workload in this process and prints, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer metrics with
``--trace 1``).  Without it, every workload runs in a fresh process, one
after another, and the last line merges their results with metric names
prefixed by the workload.  The exit code is 0 only when every run passed
its correctness checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def parse_args(argv, bench):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(bench.WORKLOADS),
                        help="run one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED,
                        help="workload seed (default %(default)s)")
    parser.add_argument("--seconds", type=int, default=bench.DEFAULT_SECONDS,
                        help="run length; sets the simulated work (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_all(args, workload_names):
    """Run every workload in its own process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            print(f"FAILED: {name} printed no result (exit code {completed.returncode})")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
        print()
    return merged


def main(argv=None):
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: the repro package is missing ({SRC_DIR / 'repro'}); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import bench  # noqa: E402 - needs repro on the path

    args = parse_args(argv, bench)
    if args.workload is None:
        result = run_all(args, list(bench.WORKLOADS))
    else:
        result = bench.run_workload(args.workload, seed=args.seed,
                                    seconds=args.seconds, trace=bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
