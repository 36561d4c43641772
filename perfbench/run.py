#!/usr/bin/env python3
"""graphlmr benchmark: time the CLI and library per workload, check outputs.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload rgg300-grouped --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One workload per process.  Human-readable lines (environment, every metric
with its unit and sample count, problems) come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced phase with ``--trace 1``.
``--workload all`` runs every workload untraced and traced, each in a fresh
child process, and prints their results.  Exits 2 without a result when the
checkout has no ``src/graphlmr``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("rgg300-grouped", "rgg300-snr30", "grid2652-spectrum",
                  "grid2500-partition")


def limit_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one child process each."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            rows.append({"workload": name, "trace": trace, **result})
    print(json.dumps({"correct": status == 0, "results": rows}))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "graphlmr" / "__init__.py").is_file():
        print(f"error: no graphlmr sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    limit_blas_threads()
    sys.path.insert(0, str(src))
    import bench  # imports numpy and graphlmr; after the thread cap

    if Path(bench.glm.__file__).resolve().parent != (src / "graphlmr").resolve():
        print(f"error: imported graphlmr from {bench.glm.__file__}", file=sys.stderr)
        return 2
    print(f"# graphlmr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("# env " + json.dumps(bench.environment(ROOT)))
    try:
        result = bench.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.scale, ROOT)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tally = result.tally
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    units = {**bench.END_TO_END, **bench.INFO, **bench.PER_LAYER}
    for name, unit in units.items():
        if name in result.metrics:
            n = result.samples.get(name)
            count = f"  (n={n})" if n is not None else ""
            print(f"{name:40s} {result.metrics[name]:.6g} {unit}{count}")
    print(f"{'failed_frac':40s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} commands and calls)")
    for note in result.notes:
        print("# " + note)
    if result.spans_path is not None:
        print(f"# spans written to {os.path.relpath(result.spans_path)}")
    wanted = bench.PER_LAYER if args.trace else bench.END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
