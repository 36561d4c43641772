#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/record_reference.py

For each workload and size, runs the check command at each reference seed
and writes ``perfbench/reference/<workload>.json``.  Run it only at a commit
whose outputs are known to be right: every later benchmark run must
reproduce these values within ``checks.REF_RTOL``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEEDS, SCALES, WORKLOADS, adjacency_lists, config_text, grid_edges,
    permuted_grid_edges, write_edge_list,
)


def record_run(shape, seed: int, workdir: Path) -> dict:
    graph_path = None
    if shape.graph[0] == "grid":
        graph_path = str(workdir / "graph.edges")
        write_edge_list(Path(graph_path), grid_edges(*shape.graph[1:]))
    cfg = workdir / "check.cfg"
    cfg.write_text(config_text(shape, name="check", seed=seed, graph_path=graph_path,
                               trials=shape.check_trials), encoding="utf-8")
    _, _, problems = bench.run_cli(["run", "--config", str(cfg),
                                    "--out-dir", str(workdir)])
    if problems:
        raise SystemExit(f"check command failed: {problems[0]}")
    meta = checks.read_meta(workdir / "check_meta.json")
    return {
        "csv": (workdir / "check.csv").read_text(encoding="utf-8"),
        "resolved": {k: meta["resolved"][k] for k in ("omega", "n_sets", "c_max", "gamma")},
    }


def record_partition(shape, seed: int, workdir: Path) -> dict:
    edges = permuted_grid_edges(shape.check_rows, shape.check_cols, seed)
    write_edge_list(workdir / "check.edges", edges)
    out = workdir / "check.txt"
    _, _, problems = bench.run_cli(["partition", "--graph", str(workdir / "check.edges"),
                                    "--nmax", str(shape.n_max), "--out", str(out)])
    if problems:
        raise SystemExit(f"check command failed: {problems[0]}")
    summary, problems = checks.check_partition(
        out.read_text(encoding="utf-8"),
        adjacency_lists(shape.check_rows * shape.check_cols, edges), shape.n_max)
    if problems:
        raise SystemExit(f"check partition invalid: {problems[0]}")
    return summary


def main() -> int:
    workdir = HERE.parent / bench.OUT_DIRNAME / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    (HERE / "reference").mkdir(exist_ok=True)
    try:
        for name, wl in WORKLOADS.items():
            record = record_run if wl.kind == "run" else record_partition
            payload = {scale: {str(seed): record(wl.shape(scale), seed, workdir)
                               for seed in REFERENCE_SEEDS} for scale in SCALES}
            path = HERE / "reference" / f"{name}.json"
            path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(HERE.parent)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
