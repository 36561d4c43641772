"""Command-line entry points: run experiments, partition graphs, inspect graphs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    load_config,
    run_experiment,
    write_report_csv,
    write_report_meta,
)
from .graph import build_laplacian, load_edge_list
from .localsets import greedy_partition, partition_metrics, write_partition

# Steady-state errors below this print as "< 1e-12": at the rounding floor
# their digits change with summation order alone.
_PRINT_FLOOR = 1e-12


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="graphlmr",
        description="Local-measurement sampling and reconstruction of "
        "bandlimited graph signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="key = value config file")
    p_run.add_argument(
        "--out-dir", default=".",
        help="output directory, created once the run has finished "
        "(default: the working directory)",
    )

    p_part = sub.add_parser("partition", help="greedily partition a graph")
    p_part.add_argument("--graph", required=True, help="edge-list file")
    p_part.add_argument("--nmax", required=True, type=int, help="maximum set size")
    p_part.add_argument("--out", required=True, help="partition output file")

    p_info = sub.add_parser("info", help="print graph size and spectrum range")
    p_info.add_argument("--graph", required=True, help="edge-list file")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "partition":
            return _cmd_partition(args)
        return _cmd_info(args)
    except (OSError, ValueError) as exc:  # ConfigError, EdgeListError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    report = run_experiment(cfg)
    # made only now, so that a run that fails leaves no directory behind
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.name}.csv"
    meta_path = out_dir / f"{cfg.name}_meta.json"
    write_report_csv(report, csv_path)
    write_report_meta(report, meta_path)
    print(f"{cfg.name}: |I| = {report.n_sets} sets, omega = {report.omega:.6g}, "
          f"C_max = {report.c_max:.6g}, gamma = {report.gamma:.6g}")
    if report.gamma >= 1.0:
        print("warning: gamma >= 1, no convergence guarantee", file=sys.stderr)
    for scheme in report.config.schemes:
        if report.spectral_radius[scheme] >= 1.0:
            print(f"warning: {scheme}: spectral radius "
                  f"{report.spectral_radius[scheme]:.6g} >= 1, the iteration diverges",
                  file=sys.stderr)
    for scheme in report.config.schemes:
        print(f"  {scheme}: steady-state relative error "
              f"{_floored(report.mean_rel_error[scheme][-1])} "
              f"(std {_floored(report.std_rel_error[scheme][-1])})")
    print(f"wrote {csv_path} and {meta_path}")
    return 0


def _floored(value: float) -> str:
    """``value`` with 6 significant digits, or ``< 1e-12`` below the floor."""
    return f"< {_PRINT_FLOOR:g}" if value < _PRINT_FLOOR else f"{value:.6g}"


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.graph)
    if graph.n_vertices == 0:
        raise ValueError(f"{args.graph}: the graph has no vertices to partition")
    partition = greedy_partition(graph, args.nmax)
    metrics = partition_metrics(graph, partition)
    write_partition(partition, args.out)
    print(f"{partition.n_sets} sets (max size {max(metrics.sizes)}, "
          f"C_max = {metrics.c_max:.6g}) -> {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.graph)
    eigenvalues = np.linalg.eigvalsh(build_laplacian(graph))
    lam2 = repr(float(eigenvalues[1])) if graph.n_vertices > 1 else "n/a"
    lam_n = repr(float(eigenvalues[-1])) if graph.n_vertices else "n/a"
    print(f"vertices: {graph.n_vertices}")
    print(f"edges: {graph.n_edges}")
    print(f"lambda_2: {lam2}")
    print(f"lambda_max: {lam_n}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
