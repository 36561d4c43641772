"""Phases, timing and metrics of one benchmark workload run.

A run is closed-loop from one process with one client: each command or call
starts after the previous one returns.  Timed commands are ``graphlmr``
CLI invocations through the in-process ``cli.main``; stream calls are
single-signal ``ilmr`` calls through the public API.  ``graphlmr`` must be
importable (``run.py`` puts the checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphlmr as glm
import graphlmr.cli as glm_cli

import checks
import tracing
from workloads import (
    REFERENCE_SEEDS,
    TAG_STREAM_GRAPH,
    TAG_STREAM_WEIGHTS,
    WORKLOADS,
    PartitionShape,
    RunShape,
    adjacency_lists,
    bench_rng,
    config_text,
    grid_band,
    grid_edges,
    laplacian_band,
    noise_sigma,
    permuted_grid_edges,
    stream_inputs,
    write_edge_list,
)

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUT_DIRNAME = ".perfbench_out"

END_TO_END = {  # name -> unit; every one is reported on every workload
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit; reported by traced runs, 0 where a layer is idle
    "spectral.eigendecompose.self_s": "s",
    "spectral.eigenpairs_used_frac": "ratio",
    "graph.build_laplacian.self_s": "s",
    "localsets.greedy_partition.self_s": "s",
    "localsets.validate_partition.self_s": "s",
    "localsets.partition_metrics.self_s": "s",
    "graph.induced_subgraph.self_s": "s",
    "graph.induced_subgraph.calls": "count",
    "graph.edges_scanned": "count",
    "graph.load_edge_list.self_s": "s",
    "graph.parse_edge_list.self_s": "s",
    "generators.self_s": "s",
    "generators.rgg_tries": "count",
    "reconstruction.ilmr.self_s": "s",
    "reconstruction.ilmr.calls": "count",
    "reconstruction.sweeps": "count",
    "reconstruction.us_per_sweep": "us",
    "reconstruction.converged_frac": "ratio",
    "sampling.measure.self_s": "s",
    "sampling.measure.calls": "count",
    "sampling.make_weights.self_s": "s",
    "sampling.make_weights.calls": "count",
    "spectral.random_bandlimited.self_s": "s",
    "noise.self_s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "graph.self_s": "s",
    "spectral.self_s": "s",
    "localsets.self_s": "s",
    "sampling.self_s": "s",
    "reconstruction.self_s": "s",
    "trace.command_s": "s",
    "trace.overhead_s": "s",
    "sweeps_per_s": "1/s",
    "recon_ms_p50": "ms",
    "recon_ms_p99": "ms",
}


INFO = {  # name -> unit; printed on every run, not bounded
    "wall_run_s": "s",
    "wall_setup_s": "s",
    "ref_kernel_ms": "ms",
}

# Reference kernels: fixed numpy and Python work that uses no graphlmr code,
# timed right before and right after each timed command.  This shared
# machine runs whole stretches of seconds at up to 1.7x its fast speed, so
# ``run_s`` and ``setup_s`` are scaled to a fixed machine speed: a command's
# wall time times nominal / kernel, where nominal is the kernel's time on the
# machine measured when it was not slowed.  A change to graphlmr moves only
# the command's time.  Each workload names the kernel whose kind of work
# dominates its commands, because the slow stretches hurt interpreted Python
# far more than multithreaded LAPACK.
_REF_RNG = np.random.default_rng(20240501)
_REF_MATRIX = _REF_RNG.standard_normal((300, 10))
_REF_SETS = [np.sort(_REF_RNG.choice(300, 8, replace=False)) for _ in range(40)]
_REF_SYMMETRIC = _REF_RNG.standard_normal((320, 320))
_REF_SYMMETRIC += _REF_SYMMETRIC.T


def interp_kernel_s() -> float:
    """Python loop over small numpy calls (10 ms nominal)."""
    v = np.ones(10)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(150):
        x = _REF_MATRIX @ v
        for members in _REF_SETS:
            acc += float(x[members] @ x[members])
        v[i % 10] = 1.0 / (1.0 + acc % 3.0)
    return time.perf_counter() - t0


def eigh_kernel_s() -> float:
    """Fastest of three dense eigendecompositions of order 320 (15 ms nominal).

    The minimum drops the thread wake-up stalls that make single small
    LAPACK calls on this machine vary far more than the workload's large one.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.linalg.eigh(_REF_SYMMETRIC)
        best = min(best, time.perf_counter() - t0)
    return best


REFERENCE_KERNELS = {  # name -> (kernel, nominal seconds)
    "interp": (interp_kernel_s, 0.010),
    "eigh": (eigh_kernel_s, 0.015),
}


def time_metrics(run_samples: list[tuple[float, float]],
                 setup_samples: list[tuple[float, float]],
                 nominal_s: float) -> dict[str, float]:
    """Medians of (command seconds, kernel seconds) samples, scaled and raw."""

    def scaled(samples):
        return statistics.median(t * nominal_s / k for t, k in samples)

    return {
        "run_s": scaled(run_samples),
        "setup_s": scaled(setup_samples),
        "wall_run_s": statistics.median(t for t, _ in run_samples),
        "wall_setup_s": statistics.median(t for t, _ in setup_samples),
        "ref_kernel_ms": statistics.median(
            k for _, k in run_samples + setup_samples) * 1e3,
    }


def sample_counts(run_samples: list, setup_samples: list) -> dict[str, int]:
    n_run, n_setup = len(run_samples), len(setup_samples)
    return {"run_s": n_run, "wall_run_s": n_run, "setup_s": n_setup,
            "wall_setup_s": n_setup, "ref_kernel_ms": n_run + n_setup}


@dataclass
class Tally:
    """Attempted and failed commands or calls, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problems[0]}")
        return not problems


@dataclass
class Result:
    tally: Tally
    metrics: dict[str, float]
    samples: dict[str, int]
    notes: list[str] = field(default_factory=list)
    spans_path: Path | None = None


def run_cli(argv: list[str]) -> tuple[float, str, list[str]]:
    """Time one in-process CLI command; returns (seconds, stdout, problems)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = glm_cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a crash is a failed command, not a benchmark crash
        elapsed = time.perf_counter() - t0
        return elapsed, out.getvalue(), [traceback.format_exc(limit=3).strip()]
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, out.getvalue(), [f"exit {code}: {err.getvalue().strip()[-300:]}"]
    return elapsed, out.getvalue(), []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _keep_going(t_start: float, excluded: float, round_s: float, seconds: float) -> bool:
    """Start another round only if it fits in the measuring time."""
    return time.perf_counter() - t_start - excluded + round_s <= seconds


class Bench:
    """One workload run inside a private work directory of the checkout."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 scale: str, workdir: Path):
        self.wl = WORKLOADS[name]
        self.kernel, self.nominal_s = REFERENCE_KERNELS[self.wl.reference]
        self.shape = self.wl.shape(scale)
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.scale = scale
        self.dir = workdir
        self.tally = Tally()
        self.reference = load_reference(name).get(scale, {})
        self._grid_path: str | None = None

    def _timed(self, command, samples: list[tuple[float, float]]) -> None:
        """Run ``command()`` between two reference kernels; keep it if it passed."""
        before = self.kernel()
        seconds = command()
        after = self.kernel()
        if seconds is not None:
            samples.append((seconds, 0.5 * (before + after)))

    # -- run workloads -------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.relpath(self.dir / name)

    def _write_config(self, fname: str, **kw) -> str:
        path = self.dir / fname
        path.write_text(config_text(self.shape, graph_path=self._grid_path, **kw),
                        encoding="utf-8")
        return self._path(fname)

    def _run_command(self, cfg: str, name: str, max_iterations: int,
                     steady_range=None, reference=None) -> float | None:
        seconds, _, problems = run_cli(["run", "--config", cfg,
                                        "--out-dir", self._path("out")])
        if not problems:
            out = self.dir / "out"
            try:
                csv_text = (out / f"{name}.csv").read_text(encoding="utf-8")
                meta = checks.read_meta(out / f"{name}_meta.json")
            except (OSError, ValueError) as exc:
                problems = [f"unreadable output: {exc}"]
            else:
                problems = checks.check_run_output(
                    csv_text, meta, self.shape.schemes, max_iterations, steady_range)
                if reference is not None and not problems:
                    problems = checks.compare_to_reference(csv_text, meta, reference)
        ok = self.tally.record(f"run {name}", problems)
        return seconds if ok else None

    def _prepare_stream(self) -> None:
        shape = self.shape
        if shape.graph[0] == "rgg":
            graph = glm.random_geometric_graph(
                shape.graph[1], shape.graph[2], bench_rng(self.seed, TAG_STREAM_GRAPH))
        else:
            graph = glm.load_edge_list(self._grid_path)
        edges = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
        basis = glm.eigendecompose(glm.build_laplacian(graph))
        if shape.band[0] == "band_dim":
            band, omega = laplacian_band(graph.n_vertices, edges, shape.band[1])
        else:
            omega = shape.band[1]
            band = grid_band(shape.graph[1], shape.graph[2], omega)
        self.tally.record("stream band", [] if basis.band_dim(omega) == band.shape[1]
                          else [f"program band dim {basis.band_dim(omega)} != "
                                f"{band.shape[1]}"])
        partition = glm.greedy_partition(graph, shape.n_max)
        metrics = glm.partition_metrics(graph, partition)
        sigma = noise_sigma(shape, graph.n_vertices, self.seed)
        scheme = shape.schemes[0]
        weights = glm.make_weights(
            scheme, partition,
            noise=glm.NoiseModel(sigma=sigma) if scheme.startswith("optimal") else None,
            rng=bench_rng(self.seed, TAG_STREAM_WEIGHTS))
        self.stream = stream_inputs(band, partition.sets, weights.values, sigma,
                                    shape.stream_calls, self.seed)
        self.stream_args = (partition, weights, basis, glm.ReconstructionConfig(omega))
        self.stream_c_max = metrics.c_max
        self.stream_next = 0
        self._stream_calls(1, [])  # warm caches before any timed call

    def _stream_calls(self, count: int, latencies: list[float]) -> None:
        partition, weights, basis, cfg = self.stream_args
        pool = len(self.stream.measurements)
        for _ in range(count):
            j = self.stream_next % pool
            self.stream_next += 1
            m = self.stream.measurements[j]
            t0 = time.perf_counter()
            try:
                run = glm.ilmr(m, partition, weights, basis, cfg, c_max=self.stream_c_max)
            except Exception:
                self.tally.record("stream call", [traceback.format_exc(limit=2)])
                continue
            dt = time.perf_counter() - t0
            if self.tally.record("stream call",
                                 checks.check_stream_call(run, self.stream.expected[j])):
                latencies.append(dt)

    def run_workload(self) -> Result:
        shape: RunShape = self.shape
        if shape.graph[0] == "grid":
            write_edge_list(self.dir / "graph.edges", grid_edges(*shape.graph[1:]))
            self._grid_path = self._path("graph.edges")
        main_cfg = self._write_config("bench.cfg", name="bench", seed=self.seed)
        setup_cfg = self._write_config("setup.cfg", name="setup", seed=self.seed,
                                       trials=1, max_iterations=1)
        steady = shape.steady_range if self.scale == "full" else None
        run_samples, setup_samples, latencies = [], [], []
        rss = None
        stream_attempts = 0
        self.kernel()  # warm
        t_start, excluded = time.perf_counter(), 0.0
        while True:
            r0, prep = time.perf_counter(), 0.0
            self._timed(lambda: self._run_command(
                main_cfg, "bench", shape.max_iterations, steady), run_samples)
            if rss is None:
                rss = peak_rss_mb()
                p0 = time.perf_counter()
                self._prepare_stream()
                prep = time.perf_counter() - p0
                excluded += prep
            for _ in range(shape.setups_per_round):
                self._timed(lambda: self._run_command(setup_cfg, "setup", 1),
                            setup_samples)
            self._stream_calls(shape.stream_chunk, latencies)
            stream_attempts += shape.stream_chunk
            round_s = time.perf_counter() - r0 - prep
            if not _keep_going(t_start, excluded, round_s, self.seconds):
                break
        if stream_attempts < shape.stream_calls:
            self._stream_calls(shape.stream_calls - stream_attempts, latencies)

        for ref_seed in REFERENCE_SEEDS:
            cfg = self._write_config(f"check{ref_seed}.cfg", name="check",
                                     seed=ref_seed, trials=shape.check_trials)
            ref = self.reference.get(str(ref_seed))
            if ref is None:
                self.tally.record(f"check seed {ref_seed}",
                                  [f"no reference for {self.name} ({self.scale})"])
                continue
            self._run_command(cfg, "check", shape.max_iterations, reference=ref)

        if not run_samples or not setup_samples or not latencies:
            raise RuntimeError("no successful sample; problems: "
                               + "; ".join(self.tally.problems[:3]))
        times = time_metrics(run_samples, setup_samples, self.nominal_s)
        run_s, setup_s = times["run_s"], times["setup_s"]
        lat_ms = np.array(latencies) * 1e3
        work = shape.trials * len(shape.schemes) * shape.max_iterations
        metrics = {
            **times,
            "peak_rss_mb": rss,
            "sweeps_per_s": (work / (run_s - setup_s)
                             if shape.graph[0] == "rgg" and run_s > setup_s else 0.0),
            "recon_ms_p50": float(np.percentile(lat_ms, 50)),
            "recon_ms_p99": float(np.percentile(lat_ms, 99)),
        }
        samples = {**sample_counts(run_samples, setup_samples),
                   "peak_rss_mb": 1, "recon_ms_p50": len(latencies),
                   "recon_ms_p99": len(latencies), "sweeps_per_s": len(run_samples)}
        result = Result(self.tally, metrics, samples)
        if self.trace:
            self._traced_phase(result, lambda: self._run_command(
                main_cfg, "bench", shape.max_iterations, steady),
                stream=True)
        return result

    # -- partition workload --------------------------------------------------

    def _partition_command(self, edges_path: str, adj, out_name: str,
                           reference=None, validate=False) -> float | None:
        out = self.dir / out_name
        seconds, stdout, problems = run_cli(
            ["partition", "--graph", edges_path, "--nmax", str(self.shape.n_max),
             "--out", self._path(out_name)])
        if not problems:
            try:
                text = out.read_text(encoding="utf-8")
            except OSError as exc:
                problems = [f"unreadable partition: {exc}"]
            else:
                summary, problems = checks.check_partition(text, adj, self.shape.n_max)
                if not problems:
                    problems = checks.check_partition_summary(summary, stdout)
                if not problems and reference is not None:
                    problems = checks.compare_partition_reference(summary, reference)
                if not problems and validate:
                    violations = glm.validate_partition(
                        glm.load_edge_list(edges_path), glm.read_partition(out))
                    problems = [f"validate_partition: {v}" for v in violations]
        ok = self.tally.record(f"partition {out_name}", problems)
        return seconds if ok else None

    def _load_call(self, edges_path: str, expected: tuple[int, int]) -> float | None:
        """Time one ``load_edge_list`` call; None if it failed or loaded wrong."""
        t0 = time.perf_counter()
        try:
            graph = glm.load_edge_list(edges_path)
        except Exception:
            self.tally.record("load_edge_list", [traceback.format_exc(limit=2)])
            return None
        dt = time.perf_counter() - t0
        loaded = (graph.n_vertices, graph.n_edges)
        ok = self.tally.record("load_edge_list", [] if loaded == expected
                               else [f"loaded (vertices, edges) {loaded}"])
        return dt if ok else None

    def partition_workload(self) -> Result:
        shape: PartitionShape = self.shape
        n = shape.rows * shape.cols
        edges = permuted_grid_edges(shape.rows, shape.cols, self.seed)
        write_edge_list(self.dir / "graph.edges", edges)
        edges_path = self._path("graph.edges")
        adj = adjacency_lists(n, edges)
        run_samples, load_samples = [], []
        rss = None
        self.kernel()  # warm
        t_start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            self._timed(lambda: self._partition_command(edges_path, adj, "sets.txt"),
                        run_samples)
            if rss is None:
                rss = peak_rss_mb()
            self._timed(lambda: self._load_call(edges_path, (n, len(edges))),
                        load_samples)
            if not _keep_going(t_start, 0.0, time.perf_counter() - r0, self.seconds):
                break

        for ref_seed in REFERENCE_SEEDS:
            check_edges = permuted_grid_edges(shape.check_rows, shape.check_cols, ref_seed)
            fname = f"check{ref_seed}.edges"
            write_edge_list(self.dir / fname, check_edges)
            ref = self.reference.get(str(ref_seed))
            if ref is None:
                self.tally.record(f"check seed {ref_seed}",
                                  [f"no reference for {self.name} ({self.scale})"])
                continue
            self._partition_command(
                self._path(fname),
                adjacency_lists(shape.check_rows * shape.check_cols, check_edges),
                f"check{ref_seed}.txt", reference=ref, validate=True)

        if not run_samples or not load_samples:
            raise RuntimeError("no successful sample; problems: "
                               + "; ".join(self.tally.problems[:3]))
        metrics = {
            **time_metrics(run_samples, load_samples, self.nominal_s),
            "peak_rss_mb": rss,
            "sweeps_per_s": 0.0,
            "recon_ms_p50": 0.0,
            "recon_ms_p99": 0.0,
        }
        samples = {**sample_counts(run_samples, load_samples), "peak_rss_mb": 1}
        result = Result(self.tally, metrics, samples)
        if self.trace:
            self._traced_phase(result, lambda: self._partition_command(
                edges_path, adj, "sets.txt"), stream=False)
        return result

    # -- traced phase ----------------------------------------------------------

    def _traced_phase(self, result: Result, command, stream: bool) -> None:
        band_counted: list[bool] = []

        def on_eigendecompose(args, kwargs, res):
            return {"eigenpairs": int(res.n)}

        def on_ilmr(args, kwargs, res):
            attrs = {"sweeps": res.iterations_used,
                     "converged": res.stop_reason == "converged"}
            if not band_counted:  # once per phase: it runs inside the parent's span
                basis = args[3] if len(args) > 3 else kwargs["basis"]
                cfg = args[4] if len(args) > 4 else kwargs["config"]
                attrs["band_dim"] = basis.band_dim(cfg.omega)
                band_counted.append(True)
            return attrs

        def on_induced(args, kwargs, res):
            graph = args[0] if args else kwargs["graph"]
            return {"edges": graph.n_edges}

        tracer = tracing.Tracer({
            "spectral.eigendecompose": on_eigendecompose,
            "reconstruction.ilmr": on_ilmr,
            "graph.induced_subgraph": on_induced,
        })
        with tracer:
            t0 = time.perf_counter()
            traced_run = command()
            command_s = time.perf_counter() - t0
            if stream:
                self._stream_calls(self.shape.stream_chunk, [])
        spans = tracer.spans
        path = self.dir.parent / f"spans-{self.name}-seed{self.seed}.jsonl"
        tracer.write(path)
        result.spans_path = path
        result.metrics.update(layer_metrics(spans))
        result.metrics["trace.command_s"] = command_s
        result.metrics["trace.overhead_s"] = (
            command_s - result.metrics["wall_run_s"] if traced_run is not None else 0.0)
        result.notes += breakdown(spans, command_s)


def layer_metrics(spans: list[tracing.Span]) -> dict[str, float]:
    """Per-layer metrics over every span of the traced phase."""
    summary = tracing.summarize(spans)
    by_name, by_layer = summary["by_name"], summary["by_layer"]

    def self_s(name: str) -> float:
        return by_name.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(by_name.get(name, {}).get("calls", 0))

    ilmr = [s for s in spans if s.name == "reconstruction.ilmr"]
    sweeps = sum(s.attrs.get("sweeps", 0) for s in ilmr)
    ilmr_incl = sum(s.end - s.start for s in ilmr)
    stream = [s for s in ilmr if s.parent < 0]
    eigenpairs = max((s.attrs["eigenpairs"] for s in spans
                      if s.name == "spectral.eigendecompose"), default=0)
    band_dim = next((s.attrs["band_dim"] for s in ilmr if "band_dim" in s.attrs), 0)
    rgg_tries = sum(1 for s in spans if s.name == "graph.is_connected" and s.parent >= 0
                    and spans[s.parent].name == "generators.random_geometric_graph")
    out = {
        name: self_s(name[: -len(".self_s")])
        for name in PER_LAYER if name.endswith(".self_s") and name.count(".") == 2
    }
    out.update({name: float(calls(name[: -len(".calls")]))
                for name in PER_LAYER if name.endswith(".calls")})
    out.update({f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in tracing.LAYERS})
    out.update({
        "spectral.eigenpairs_used_frac": band_dim / eigenpairs if eigenpairs else 0.0,
        "graph.edges_scanned": float(sum(s.attrs.get("edges", 0) for s in spans
                                         if s.name == "graph.induced_subgraph")),
        "generators.rgg_tries": float(rgg_tries),
        "reconstruction.sweeps": float(sweeps),
        "reconstruction.us_per_sweep": ilmr_incl / sweeps * 1e6 if sweeps else 0.0,
        "reconstruction.converged_frac": (
            sum(s.attrs.get("converged", False) for s in stream) / len(stream)
            if stream else 0.0),
    })
    return out


def breakdown(spans: list[tracing.Span], command_s: float) -> list[str]:
    """Self time per layer under the traced command's root and under the stream."""
    own = tracing.self_times(spans)
    groups: dict[str, dict[str, float]] = {}
    for i, (s, t) in enumerate(zip(spans, own)):
        root = spans[tracing.root_of(spans, i)].name
        group = "command" if root == "cli.main" else "stream"
        layer = tracing.layer_of(s.name)
        groups.setdefault(group, {}).setdefault(layer, 0.0)
        groups[group][layer] += t
    lines = []
    for group, layers in groups.items():
        total = command_s if group == "command" else sum(layers.values())
        parts = ", ".join(f"{k} {v:.4f} s ({v / total:.0%})"
                          for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
                          if v > 0)
        lines.append(f"traced {group} self time by layer (of {total:.4f} s): {parts}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", root: Path | None = None) -> Result:
    """Run one workload in a fresh work directory under ``root``."""
    root = Path(root) if root is not None else HERE.parent
    out_dir = root / OUT_DIRNAME
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(name, seed, seconds, trace, scale, workdir)
        if bench.wl.kind == "run":
            return bench.run_workload()
        return bench.partition_workload()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment(root: Path) -> dict:
    """Machine and code facts recorded with every result."""
    src = root / "src" / "graphlmr"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(src.glob("*.py")))
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version"))
                for k in ("blas", "lapack")}
    except (KeyError, TypeError, AttributeError):  # layout varies by numpy version
        blas = {"blas": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(root),
        "src_graphlmr_lines": lines,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
