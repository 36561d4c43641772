"""Workload definitions and input generation for the graphlmr benchmark.

Each workload keeps its own copy of its configuration, so an edit under
``configs/`` never silently changes what the benchmark measures.  Every input
the program receives (config text, edge-list file, stream measurements) is
generated here from the benchmark's workload seed.

Two sizes exist: ``full`` is what the benchmark measures, ``tiny`` is the
same shape shrunk so that the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
HOLDOUT_SEED = 7
REFERENCE_SEEDS = (DEFAULT_SEED, HOLDOUT_SEED)
SCALES = ("full", "tiny")

# SeedSequence tags of the benchmark's own streams; the program's internal
# streams are private and never reproduced here.
TAG_STREAM_GRAPH = 9001
TAG_STREAM_WEIGHTS = 9005
_TAG_STREAM_GROUPS = 9002
_TAG_STREAM_INPUT = 9003
_TAG_EDGE_ORDER = 9004


def bench_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


@dataclass(frozen=True)
class RunShape:
    """One ``graphlmr run`` experiment plus its single-signal stream.

    ``graph`` is either ``("rgg", n, radius)`` or ``("grid", rows, cols)``;
    a grid reaches the program as an edge-list file.  ``band`` is
    ``("band_dim", k)`` or ``("omega", value)``.  ``steady_range`` bounds the
    final mean relative error per scheme for a full-size run at any seed; each
    limit is at least twice the extreme seen over seeds 1-80 (1-30 on the grid).
    """

    graph: tuple
    band: tuple
    n_max: int
    schemes: tuple[str, ...]
    noise: tuple  # ("grouped", sigmas) | ("iid", sigma)
    trials: int
    max_iterations: int
    check_trials: int
    stream_calls: int
    stream_chunk: int
    setups_per_round: int
    steady_range: dict[str, tuple[float, float]] | None = None


@dataclass(frozen=True)
class PartitionShape:
    """``graphlmr partition`` on a label-permuted, edge-shuffled grid."""

    rows: int
    cols: int
    n_max: int
    check_rows: int
    check_cols: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: dict = field(default_factory=dict)  # scale -> RunShape | PartitionShape
    # Reference kernel that ``run_s`` and ``setup_s`` are scaled by (see
    # ``bench.py``): "interp" (interpreted Python with small numpy calls) or
    # "eigh" (a dense eigendecomposition), whichever kind of work dominates
    # the workload's commands.
    reference: str = "interp"

    @property
    def kind(self) -> str:
        return "run" if isinstance(self.shapes["full"], RunShape) else "partition"

    def shape(self, scale: str):
        return self.shapes[scale]


_GROUPED = ("grouped", (1e-4, 2e-4, 5e-4))

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rgg300-grouped",
            why="rgg_grouped_weights setup: ILMR sweep at desk scale with "
            "trial-independent weights, so batching or caching the band "
            "operator shows here",
            shapes={
                "full": RunShape(
                    graph=("rgg", 300, 0.09), band=("band_dim", 10), n_max=8,
                    schemes=("optimal", "uniform", "optimal_dirac"),
                    noise=_GROUPED, trials=150, max_iterations=120,
                    check_trials=2, stream_calls=1000, stream_chunk=500,
                    setups_per_round=5,
                    # optimal_dirac has a heavy tail over graphs: its final
                    # error ran from 8.4e-4 to 6.8e-3 over seeds 1-80.
                    steady_range={
                        "optimal": (2.5e-4, 3e-3),
                        "uniform": (4e-4, 2.5e-3),
                        "optimal_dirac": (4e-4, 5e-2),
                    },
                ),
                "tiny": RunShape(
                    graph=("rgg", 60, 0.25), band=("band_dim", 4), n_max=4,
                    schemes=("optimal", "uniform", "optimal_dirac"),
                    noise=_GROUPED, trials=2, max_iterations=5,
                    check_trials=1, stream_calls=20, stream_chunk=10,
                    setups_per_round=1,
                ),
            },
        ),
        Workload(
            name="rgg300-snr30",
            why="rgg_snr30 setup: the same sweep with random/dirac weights "
            "redrawn every trial, so per-trial weight cost shows here",
            shapes={
                "full": RunShape(
                    graph=("rgg", 300, 0.09), band=("band_dim", 4), n_max=3,
                    schemes=("uniform", "random", "dirac"),
                    noise=("iid", 1.8257418583505537e-3), trials=100,
                    max_iterations=80, check_trials=2, stream_calls=1000,
                    stream_chunk=1000, setups_per_round=5,
                    steady_range={
                        "uniform": (1.5e-3, 8e-3),
                        "random": (1.5e-3, 9e-3),
                        "dirac": (2.5e-3, 1.5e-2),
                    },
                ),
                "tiny": RunShape(
                    graph=("rgg", 60, 0.25), band=("band_dim", 3), n_max=3,
                    schemes=("uniform", "random", "dirac"),
                    noise=("iid", 1.8257418583505537e-3), trials=2,
                    max_iterations=5, check_trials=1, stream_calls=20,
                    stream_chunk=10, setups_per_round=1,
                ),
            },
        ),
        Workload(
            name="grid2652-spectrum",
            why="minnesota_grouped setup on a 52x51 grid: the dense "
            "eigendecomposition dominates set-up and memory",
            reference="eigh",
            shapes={
                "full": RunShape(
                    graph=("grid", 52, 51), band=("omega", 0.01), n_max=8,
                    schemes=("optimal", "uniform", "optimal_dirac"),
                    noise=_GROUPED, trials=10, max_iterations=150,
                    check_trials=1, stream_calls=1000, stream_chunk=500,
                    setups_per_round=1,
                    steady_range={
                        "optimal": (1e-4, 2e-3),
                        "uniform": (1e-4, 3e-3),
                        "optimal_dirac": (1e-4, 4e-3),
                    },
                ),
                "tiny": RunShape(
                    graph=("grid", 8, 7), band=("omega", 0.3), n_max=2,
                    schemes=("optimal", "uniform", "optimal_dirac"),
                    noise=_GROUPED, trials=2, max_iterations=5,
                    check_trials=1, stream_calls=20, stream_chunk=10,
                    setups_per_round=1,
                ),
            },
        ),
        Workload(
            name="grid2500-partition",
            why="graphlmr partition on a permuted 50x50 grid: edge-list "
            "loading, greedy partitioning and the per-set subgraph scans",
            shapes={
                "full": PartitionShape(
                    rows=50, cols=50, n_max=8, check_rows=30, check_cols=30,
                ),
                "tiny": PartitionShape(
                    rows=12, cols=12, n_max=8, check_rows=6, check_cols=6,
                ),
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# Program inputs


def grid_edges(rows: int, cols: int) -> np.ndarray:
    """Edges of a rows x cols lattice, vertex (r, c) = r * cols + c."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    horiz = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    vert = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return np.concatenate([horiz, vert])


def permuted_grid_edges(rows: int, cols: int, seed: int) -> np.ndarray:
    """Grid edges with vertex labels permuted and edge order shuffled."""
    rng = bench_rng(seed, _TAG_EDGE_ORDER)
    perm = rng.permutation(rows * cols)
    edges = perm[grid_edges(rows, cols)]
    return edges[rng.permutation(len(edges))]


def write_edge_list(path: Path, edges: np.ndarray) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()),
                    encoding="utf-8")


def config_text(
    shape: RunShape,
    name: str,
    seed: int,
    graph_path: str | None = None,
    trials: int | None = None,
    max_iterations: int | None = None,
) -> str:
    """``key = value`` config for a run shape; ``graph_path`` for grids."""
    lines = [f"name = {name}"]
    if shape.graph[0] == "rgg":
        lines += ["graph = rgg", f"graph.n = {shape.graph[1]}",
                  f"graph.radius = {shape.graph[2]!r}"]
    else:
        if graph_path is None or "#" in graph_path:
            raise ValueError(f"grid shapes need a '#'-free edge-list path, "
                             f"got {graph_path!r}")
        lines += ["graph = edgelist", f"graph.path = {graph_path}"]
    lines.append(f"{shape.band[0]} = {shape.band[1]!r}")
    lines.append(f"n_max = {shape.n_max}")
    lines.append("schemes = " + " ".join(shape.schemes))
    kind, sigma = shape.noise
    lines.append(f"noise = {kind}")
    if kind == "grouped":
        lines.append("noise.sigma = " + " ".join(repr(s) for s in sigma))
    else:
        lines.append(f"noise.sigma = {sigma!r}")
    lines.append(f"trials = {shape.trials if trials is None else trials}")
    lines.append("max_iterations = "
                 f"{shape.max_iterations if max_iterations is None else max_iterations}")
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stream inputs and their independent oracle


def adjacency_lists(n: int, edges: np.ndarray) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def grid_band(rows: int, cols: int, omega: float) -> np.ndarray:
    """Orthonormal basis of the grid Laplacian's band ``lambda <= omega``.

    The lattice Laplacian is the Kronecker sum of two path Laplacians, whose
    eigenvectors are DCT-II cosines, so the band is known in closed form.
    """

    def path_modes(m: int) -> tuple[np.ndarray, np.ndarray]:
        a = np.arange(m)
        lam = 4.0 * np.sin(np.pi * a / (2 * m)) ** 2
        vecs = np.cos(np.pi * np.outer(np.arange(m) + 0.5, a) / m)
        return lam, vecs / np.linalg.norm(vecs, axis=0)

    lam_r, vec_r = path_modes(rows)
    lam_c, vec_c = path_modes(cols)
    cols_out = [
        np.outer(vec_r[:, a], vec_c[:, b]).ravel()
        for a in range(rows) for b in range(cols)
        if lam_r[a] + lam_c[b] <= omega
    ]
    return np.stack(cols_out, axis=1)


def laplacian_band(n: int, edges: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Lowest-k eigenvectors of L = D - A and the midpoint cutoff above them."""
    lap = np.zeros((n, n))
    u, v = edges[:, 0], edges[:, 1]
    lap[u, v] = lap[v, u] = -1.0
    lap[np.arange(n), np.arange(n)] = -lap.sum(axis=1)
    vals, vecs = np.linalg.eigh(lap)
    return vecs[:, :k], float(0.5 * (vals[k - 1] + vals[k]))


def noise_sigma(shape: RunShape, n: int, seed: int) -> np.ndarray:
    """Per-vertex noise deviation: iid, or equal seeded groups per sigma."""
    kind, sigma = shape.noise
    if kind == "iid":
        return np.full(n, float(sigma))
    perm = bench_rng(seed, _TAG_STREAM_GROUPS).permutation(n)
    out = np.empty(n)
    for sig, chunk in zip(sigma, np.array_split(perm, len(sigma))):
        out[chunk] = sig
    return out


@dataclass
class StreamInputs:
    """Measurements for single-signal ILMR calls and their expected results.

    ``expected[j]`` is the exact fixed point of the iteration for
    ``measurements[j]``, solved in an orthonormal band basis B that the
    benchmark computes itself: with S spreading set values over members and
    Phi stacking the weight rows, the iteration stops changing at ``B c``
    where ``B.T S (m - Phi B c) = 0``.
    """

    measurements: list[np.ndarray]
    expected: list[np.ndarray]


def stream_inputs(band: np.ndarray, sets, weight_values, sigma: np.ndarray,
                  count: int, seed: int) -> StreamInputs:
    n, k = band.shape
    n_sets = len(sets)
    phi = np.zeros((n_sets, n))
    spread = np.zeros((n, n_sets))
    for i, (members, w) in enumerate(zip(sets, weight_values)):
        phi[i, list(members)] = w
        spread[list(members), i] = 1.0
    lhs = (band.T @ spread) @ (phi @ band)
    rng = bench_rng(seed, _TAG_STREAM_INPUT)
    measurements, expected = [], []
    for _ in range(count):
        f = band @ rng.standard_normal(k)
        f /= np.linalg.norm(f)
        m = phi @ (f + sigma * rng.standard_normal(n))
        measurements.append(m)
        expected.append(band @ np.linalg.solve(lhs, band.T @ (spread @ m)))
    return StreamInputs(measurements=measurements, expected=expected)
