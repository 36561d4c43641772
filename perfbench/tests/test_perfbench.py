"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Smoke runs use ``--scale tiny`` so every workload finishes in about a second.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import graphlmr as glm  # noqa: E402
import graphlmr.cli  # noqa: E402
import graphlmr.experiments  # noqa: E402
import graphlmr.localsets  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f"\n{name} " in proc.stdout  # the readable line with its unit


def test_refuses_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rgg300-grouped",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60, check=False)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# Self-time arithmetic


def test_self_time_subtracts_merged_children():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, -1),
        S("experiments.run_experiment", 1.0, 4.0, 0),
        S("spectral.eigendecompose", 2.0, 3.0, 1),
        S("reconstruction.ilmr", 5.0, 9.0, 0),
        S("sampling.measure", 8.0, 9.5, 0),   # overlaps the ilmr span
        S("noise.sample_noise", 9.5, 11.0, 0),  # runs past the parent's end
        S("experiments.write_report_csv", 10.0, 10.0, 0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([2.0, 2.0, 1.0, 4.0, 1.5, 1.5, 0.0])
    layers = tracing.summarize(spans)["by_layer"]
    assert layers["cli"] == pytest.approx(2.0)  # writing is booked to cli
    assert layers["experiments"] == pytest.approx(2.0)


def test_tracer_sees_calls_inside_the_package_and_restores():
    original = glm.partition_metrics
    graph = glm.grid_graph(4, 4)
    with tracing.Tracer() as tracer:
        assert glm.partition_metrics is not original
        glm.partition_metrics(graph, glm.greedy_partition(graph, 4))
    assert glm.partition_metrics is original
    assert graphlmr.localsets.induced_subgraph.__module__ == "graphlmr.graph"
    names = [s.name for s in tracer.spans]
    metrics_idx = names.index("localsets.partition_metrics")
    validate = [s for s in tracer.spans if s.name == "localsets.validate_partition"]
    assert validate and validate[0].parent == metrics_idx
    induced = [s for s in tracer.spans if s.name == "graph.induced_subgraph"]
    assert len(induced) == 8  # 4 sets, scanned by validation and by metrics


def test_times_are_scaled_to_the_nominal_kernel_speed():
    out = bench.time_metrics([(2.0, 0.01), (1.0, 0.005), (3.0, 0.02)],
                             [(0.2, 0.02)], nominal_s=0.01)
    assert out == pytest.approx({"run_s": 2.0, "setup_s": 0.1, "wall_run_s": 2.0,
                                 "wall_setup_s": 0.2, "ref_kernel_ms": 15.0})


def test_layer_metrics_default_to_zero_for_missing_functions():
    out = bench.layer_metrics([])
    for name in bench.PER_LAYER:
        if name.startswith("trace.") or name in ("sweeps_per_s", "recon_ms_p50",
                                                  "recon_ms_p99"):
            continue
        assert out[name] == 0.0, name


# ---------------------------------------------------------------------------
# Wrong outputs count as failures


def _reference(name: str, seed: str = "1") -> dict:
    return bench.load_reference(name)["tiny"][seed]


def test_corrupted_csv_is_rejected():
    ref = _reference("rgg300-grouped")
    meta = {"resolved": ref["resolved"]}
    assert checks.compare_to_reference(ref["csv"], meta, ref) == []
    lines = ref["csv"].splitlines()
    scheme, it, mean, std = lines[3].split(",")
    lines[3] = f"{scheme},{it},{float(mean) * (1 + 1e-6)!r},{std}"
    assert checks.compare_to_reference("\n".join(lines) + "\n", meta, ref)
    truncated = "\n".join(ref["csv"].splitlines()[:-1]) + "\n"
    assert checks.check_run_output(truncated, meta, ("optimal", "uniform",
                                                     "optimal_dirac"), 5)


def test_corrupted_partition_is_rejected():
    graph = glm.grid_graph(5, 5)
    adj = [list(a) for a in graph.adjacency]
    text = graphlmr.localsets.format_partition(glm.greedy_partition(graph, 4))
    summary, problems = checks.check_partition(text, adj, 4)
    assert problems == [] and summary["n_sets"] > 1
    lines = text.splitlines()
    assert checks.check_partition("\n".join(lines[1:]), adj, 4)[1]  # uncovered
    merged = "\n".join([lines[0] + " " + lines[1]] + lines[2:])
    assert checks.check_partition(merged, adj, 4)[1]  # set too large
    first = lines[0].split()
    twice = "\n".join([" ".join([lines[1].split()[0]] + first[1:])] + lines[1:])
    assert checks.check_partition(twice, adj, 4)[1]  # a vertex in two sets
    far = "\n".join([" ".join(first[:-1] + ["24"])] + [
        " ".join(v if v != "24" else first[-1] for v in line.split())
        for line in lines[1:]])
    assert checks.check_partition(far, adj, 4)[1]  # a disconnected set


def test_off_fixed_point_stream_call_is_rejected():
    class Run:
        estimate = np.array([1.0, 2.0, 3.0])
        stop_reason = "converged"

    assert checks.check_stream_call(Run(), np.array([1.0, 2.0, 3.0])) == []
    assert checks.check_stream_call(Run(), np.array([1.0, 2.0, 3.0 + 1e-4]))


def test_wrong_check_output_counts_as_failed(monkeypatch, tmp_path):
    real = graphlmr.experiments.format_report_csv

    def skewed(report):
        text = real(report)
        if report.config.name != "check":
            return text
        lines = text.splitlines()
        scheme, it, mean, std = lines[2].split(",")
        lines[2] = f"{scheme},{it},{float(mean) * 1.001!r},{std}"
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(graphlmr.experiments, "format_report_csv", skewed)
    result = bench.run_workload("rgg300-snr30", 3, 0.1, False, "tiny", tmp_path)
    assert result.tally.failed == 2  # the two reference-seed checks
    assert all("iteration 1" in p for p in result.tally.problems)


def test_wrong_partition_check_counts_as_failed(monkeypatch, tmp_path):
    real = graphlmr.cli.write_partition

    def drop_first_set(partition, path):
        if Path(path).name.startswith("check"):
            partition = replace(partition, sets=partition.sets[1:])
        real(partition, path)

    monkeypatch.setattr(graphlmr.cli, "write_partition", drop_first_set)
    result = bench.run_workload("grid2500-partition", 3, 0.1, False, "tiny", tmp_path)
    assert result.tally.failed == 2


def test_all_outputs_wrong_gives_no_result(monkeypatch, tmp_path):
    monkeypatch.setattr(graphlmr.cli, "write_partition",
                        lambda partition, path: Path(path).write_text("0\n"))
    with pytest.raises(RuntimeError, match="no successful sample"):
        bench.run_workload("grid2500-partition", 3, 0.1, False, "tiny", tmp_path)
