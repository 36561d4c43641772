"""Seeded, config-driven reconstruction experiments with CSV persistence.

A run fixes a graph and a partition, then for every trial draws a random
bandlimited signal and a noise vector, measures with each weight scheme, and
reconstructs; it logs the relative error per iteration against the noise-free
truth.  Everything is derived from one integer seed through named
SeedSequence streams, so adding trials or adding, removing or reordering
schemes never disturbs the draws of the others.  Rerun CSVs are
byte-identical for one numpy, BLAS kernel and thread count; across those
the rgg configs agree within rtol 1e-9, atol 1e-12.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .generators import grid_graph, path_graph, random_geometric_graph
from .graph import Graph, build_laplacian, load_edge_list
from .localsets import greedy_partition, partition_metrics, suggest_nmax
from .reconstruction import BandOperator
from .sampling import (_NEEDS_NOISE, _PER_TRIAL, WEIGHT_SCHEMES, NoiseModel,
                       draw_weights, make_weights, measure)
from .spectral import SpectralBasis, _Owned, eigendecompose, random_bandlimited_block

__all__ = [
    "ConfigError",
    "GraphConfig",
    "NoiseConfig",
    "ExperimentConfig",
    "ExperimentReport",
    "parse_config",
    "load_config",
    "run_experiment",
    "write_report_csv",
    "format_report_csv",
    "write_report_meta",
]

# Stages of run_experiment, in order, as keys of ExperimentReport.timings.
_STAGES = ("graph", "laplacian", "eigendecompose", "partition", "metrics",
           "draws", "weights", "sweeps")

# SeedSequence stream tags; distinct per purpose so draws never alias.
_STREAM_GRAPH = 101
_STREAM_GROUPS = 102
_STREAM_SIGNAL = 103
_STREAM_NOISE = 104
_STREAM_WEIGHTS = 105


class ConfigError(ValueError):
    """Unusable experiment configuration."""


@dataclass(frozen=True, kw_only=True)
class GraphConfig:
    """Where the graph comes from: a generator or an edge-list file."""

    kind: str  # "path" | "grid" | "rgg" | "edgelist"
    n: int | None = None
    rows: int | None = None
    cols: int | None = None
    radius: float | None = None
    path: str | None = None


@dataclass(frozen=True, kw_only=True)
class NoiseConfig:
    """Per-vertex Gaussian noise: none, one sigma for all, or grouped: one
    sigma per equal contiguous share of the vertices after a seeded shuffle."""

    kind: str = "none"  # "none" | "iid" | "grouped"
    sigma: tuple[float, ...] = ()


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    name: str = "experiment"
    graph: GraphConfig
    schemes: tuple[str, ...]
    noise: NoiseConfig
    trials: int = 100
    max_iterations: int = 100
    seed: int = 0
    omega: float | None = None
    band_dim: int | None = None
    n_max: int | None = None
    offband_energy: float = 0.0


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Aggregated curves plus the resolved run parameters.

    ``band_dim`` counts the eigenvalues in the band [0, omega]; a ``gamma``
    >= 1 gives no convergence guarantee.  ``mean_rel_error[scheme][k]``
    averages the relative error after k iterations over all trials (k = 0 is
    the initial estimate); all curves share length ``max_iterations + 1`` and
    end in the steady state.  ``steady_errors[scheme]`` keeps the per-trial
    final errors for significance testing.  ``contraction`` and
    ``spectral_radius`` hold, per scheme, the spectral norm and the spectral
    radius of the sweep's iteration matrix I - M (the largest over trials
    for per-trial weights); a radius >= 1 means the iteration diverges.
    ``timings`` holds the wall seconds spent in each stage of the run:
    graph, laplacian, eigendecompose, partition, metrics, draws, weights and
    sweeps (the last two summed over schemes).
    """

    config: ExperimentConfig
    omega: float
    band_dim: int
    n_max: int
    n_sets: int
    c_max: float
    gamma: float
    mean_rel_error: dict[str, np.ndarray]
    std_rel_error: dict[str, np.ndarray]
    steady_errors: dict[str, np.ndarray]
    contraction: dict[str, float]
    spectral_radius: dict[str, float]
    timings: dict[str, float]


# ---------------------------------------------------------------------------
# Config parsing: line-oriented "key = value", '#' starts a comment at the
# start of a line or after whitespace, so a '#' inside a value is kept.

_COMMENT = re.compile(r"(?:^|\s)#")

# section -> its kind -> the keys of the section it takes, all required
_KINDS = {
    "graph": {
        "path": ("n",),
        "grid": ("rows", "cols"),
        "rgg": ("n", "radius"),
        "edgelist": ("path",),
    },
    "noise": {
        "none": (),
        "iid": ("sigma",),
        "grouped": ("sigma",),
    },
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


def _finites(text: str) -> tuple[float, ...]:
    return tuple(_finite(word) for word in _words(text))


_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")

# Every config key: its parser, then, if the key has one, the accepted range
# and the message that follows the key name when a value is outside it ("{!r}"
# takes the raw text).  A parser raises ValueError on a malformed value.
_KEYS = {
    "name": (str,),
    "graph": (str, lambda v: v in _KINDS["graph"],
              f"must be one of {', '.join(_KINDS['graph'])}; got {{!r}}"),
    "graph.n": (int, *_AT_LEAST_1),
    "graph.rows": (int, *_AT_LEAST_1),
    "graph.cols": (int, *_AT_LEAST_1),
    "graph.radius": (_finite, *_POSITIVE),
    "graph.path": (str,),
    "omega": (_finite, *_POSITIVE),
    "band_dim": (int, *_AT_LEAST_1),
    "n_max": (int, *_AT_LEAST_1),
    "schemes": (_words, bool, "must be nonempty"),
    "noise": (str, lambda v: v in _KINDS["noise"],
              f"must be one of {', '.join(_KINDS['noise'])}; got {{!r}}"),
    "noise.sigma": (_finites, lambda v: all(s >= 0 for s in v),
                    "entries must be nonnegative"),
    "offband_energy": (_finite, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "trials": (int, *_AT_LEAST_1),
    "max_iterations": (int, *_AT_LEAST_1),
    "seed": (int, lambda v: v >= 0, "must be nonnegative"),
}


def _parse_value(key: str, text: str):
    parse, *rule = _KEYS[key]
    try:
        value = parse(text)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}") from None
    if rule and not rule[0](value):
        raise ConfigError(f"{key} {rule[1]}".format(text))
    return value


def _check_kind(section: str, kind: str, given: dict) -> None:
    """Raise unless ``given`` has each key ``kind`` takes and no other."""
    need = _KINDS[section][kind]
    for name in need:
        if name not in given:
            raise ConfigError(f"{section} = {kind} requires {section}.{name}")
    for name in given:
        if name not in ("kind", *need):
            raise ConfigError(f"{section}.{name} does not apply to {section} = {kind}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a key = value config; raises ConfigError."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = _COMMENT.split(line, 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {line_no}: empty value for {key!r}")
        raw[key] = value

    # "graph" and "noise" set their section's kind, "graph.n" its field n
    fields: dict[str, dict] = {"": {}, "graph": {}, "noise": {}}
    for key in _KEYS:
        if key in raw:
            head, _, tail = key.rpartition(".")
            section, name = (key, "kind") if key in fields else (head, tail)
            fields[section][name] = _parse_value(key, raw[key])

    for key in ("graph", "schemes"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    graph = GraphConfig(**fields["graph"])
    _check_kind("graph", graph.kind, fields["graph"])

    if ("omega" in raw) == ("band_dim" in raw):
        raise ConfigError("exactly one of omega / band_dim must be set")

    schemes = fields[""]["schemes"]
    for s in schemes:
        if s not in WEIGHT_SCHEMES:
            raise ConfigError(
                f"unknown scheme {s!r}; valid: {', '.join(WEIGHT_SCHEMES)}"
            )
    if len(set(schemes)) != len(schemes):
        raise ConfigError("schemes must not repeat")

    noise = NoiseConfig(**fields["noise"])
    _check_kind("noise", noise.kind, fields["noise"])
    if noise.kind == "iid" and len(noise.sigma) != 1:
        raise ConfigError("noise = iid takes exactly one sigma")
    if noise.kind == "grouped" and not noise.sigma:
        raise ConfigError("noise = grouped needs at least one sigma")

    needs_noise = set(_NEEDS_NOISE) & set(schemes)
    if needs_noise and (noise.kind == "none" or min(noise.sigma) <= 0):
        raise ConfigError(
            f"schemes {sorted(needs_noise)} require noise with sigma > 0"
        )

    return ExperimentConfig(graph=graph, noise=noise, **fields[""])


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Running


def _rng(*key: int) -> np.random.Generator:
    """The generator ``np.random.default_rng(np.random.SeedSequence(key))``."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


class _PoolState:
    """A SeedSequence's ``generate_state(4, np.uint64)``, computed beforehand:
    the four words PCG64 seeds itself from.  :func:`_trial_rngs` registers it
    as an ``ISeedSequence``, so importing the package does not load
    ``numpy.random``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only generate_state(4, np.uint64)")
        return self.state


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants: ``init`` times ``mult**i`` modulo 2**32
    for i in 0..count.  Each hash advances them by one, whatever the data."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix along the last axis of uint32 ``values``: entry
    i is xored with ``consts[i]`` and multiplied by ``consts[i + 1]``."""
    out = (values ^ consts[:-1]) * consts[1:]
    return out ^ out >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ out >> _XSHIFT


def _key_words(*key: int) -> list[int]:
    """SeedSequence's entropy of a key: each int as its little-endian uint32
    words, at least one."""
    if min(key, default=0) < 0:
        raise ValueError("seed keys must be nonnegative")
    return [v >> s & _MASK32 for v in key for s in range(0, max(v.bit_length(), 1), 32)]


def _pool_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` per row of ``words``.

    SeedSequence hashes each entropy word into the pool, then hashes every
    pool word into every other one, then any entropy beyond the pool into
    all pool words, one hash constant after another; hashes into different
    pool words are independent, so each step runs on all of them at once.
    """
    rows, width = words.shape
    # entropy shorter than the pool hashes zeros in its place
    entropy = np.zeros((rows, max(width, _POOL_SIZE)), dtype=np.uint32)
    entropy[:, :width] = words
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * entropy.shape[1])
    pool = _hash(entropy[:, :_POOL_SIZE], consts[: _POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hash(pool[:, src, None], consts[at:at + len(dst) + 1])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        at += len(dst)
    for src in range(_POOL_SIZE, entropy.shape[1]):
        pool = _mix(pool, _hash(entropy[:, src, None], consts[at:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    # eight uint32 words cycling over the pool, read as little-endian pairs
    cycle = np.arange(2 * _POOL_SIZE) % _POOL_SIZE
    state = _hash(pool[:, cycle], _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def _trial_rngs(
    seed: int, stream: int, trials: range, *tail: int
) -> list[np.random.Generator]:
    """``_rng(seed, stream, t, *tail)`` for every t of ``trials`` (step 1).

    The keys are hashed as one block: SeedSequence's pool mix and
    ``generate_state`` run once over a (trials, words) uint32 matrix, and
    each generator is built from its four precomputed words.
    """
    if trials.start < 0 or trials.stop > 1 << 32:  # t is one entropy word
        raise ValueError("trial indices must lie in [0, 2**32)")
    np.random.bit_generator.ISeedSequence.register(_PoolState)
    head, rest = _key_words(seed, stream), _key_words(*tail)
    words = np.empty((len(trials), len(head) + 1 + len(rest)), dtype=np.uint32)
    words[:] = head + [0] + rest
    words[:, len(head)] = trials
    return [np.random.Generator(np.random.PCG64(_PoolState(s)))
            for s in _pool_states(words)]


def _build_graph(cfg: ExperimentConfig) -> Graph:
    g = cfg.graph
    if g.kind == "path":
        return path_graph(g.n)
    if g.kind == "grid":
        return grid_graph(g.rows, g.cols)
    if g.kind == "rgg":
        return random_geometric_graph(
            g.n, g.radius, _rng(cfg.seed, _STREAM_GRAPH)
        )
    return load_edge_list(g.path)


def _build_noise_model(cfg: ExperimentConfig, n_vertices: int) -> NoiseModel:
    nc = cfg.noise
    if nc.kind == "none":
        return NoiseModel(sigma=np.zeros(n_vertices))
    if nc.kind == "iid":
        return NoiseModel.iid(n_vertices, nc.sigma[0])
    perm = _rng(cfg.seed, _STREAM_GROUPS).permutation(n_vertices)
    m = len(nc.sigma)  # cut at the rounded cumulative shares: 56 in 3 is 19/18/19
    cuts = [round(n_vertices * c) for c in np.cumsum([1.0 / m] * (m - 1))]
    sigma = np.empty(n_vertices)
    for sig, chunk in zip(nc.sigma, np.split(perm, cuts)):
        sigma[chunk] = sig
    return NoiseModel(sigma=sigma)


def _resolve_omega(cfg: ExperimentConfig, basis: SpectralBasis) -> float:
    if cfg.omega is not None:
        return cfg.omega
    k, vals = cfg.band_dim, basis.eigenvalues
    if k > vals.size:
        raise ConfigError(f"band_dim = {k} exceeds the {vals.size} graph vertices")
    if k == vals.size:
        return float(vals[-1])
    # midpoint between the last in-band and first out-of-band eigenvalue,
    # so the inclusive cutoff cannot sit on either unless they are tied
    omega = float(0.5 * (vals[k - 1] + vals[k]))
    if (got := basis.band_dim(omega)) != k:
        raise ConfigError(f"band_dim = {k} splits tied eigenvalues lambda_{k} .. "
                          f"lambda_{got} = {vals[k - 1:got].tolist()}")
    return omega


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials of a config; deterministic in cfg.seed."""
    # numpy loads numpy.random on first use, and no stage is charged for that
    # import: it comes before the first mark if the graph is drawn, else
    # after the solver, so that its pages stay off the solver's memory peak
    if cfg.graph.kind == "rgg":
        importlib.import_module("numpy.random")
    timings = dict.fromkeys(_STAGES, 0.0)
    mark = time.perf_counter()

    def finish(stage: str) -> None:
        # adds the time since the previous mark to ``stage``
        nonlocal mark
        now = time.perf_counter()
        timings[stage] += now - mark
        mark = now

    graph = _build_graph(cfg)
    finish("graph")
    laplacian = build_laplacian(graph)
    finish("laplacian")
    # handed over: the solver may overwrite it, and the trials never read it
    basis = eigendecompose(_Owned(laplacian))
    del laplacian
    finish("eigendecompose")
    omega = _resolve_omega(cfg, basis)
    if cfg.n_max is None and omega == 0:  # suggest_nmax needs a positive cutoff
        raise ConfigError(f"band_dim = {cfg.band_dim} puts the cutoff at 0 "
                          "(the graph has no edges); set n_max")
    n_max = cfg.n_max if cfg.n_max is not None else suggest_nmax(omega)
    partition = greedy_partition(graph, n_max)
    band_dim = basis.band_dim(omega)
    if partition.n_sets < band_dim:  # A = Phi U_b cannot have full column rank
        raise ConfigError(f"{partition.n_sets} sets cannot determine a band of "
                          f"dimension {band_dim}; lower n_max or the band")
    finish("partition")
    metrics = partition_metrics(graph, partition)
    gamma = metrics.c_max * math.sqrt(omega)
    finish("metrics")
    importlib.import_module("numpy.random")
    mark = time.perf_counter()
    model = _build_noise_model(cfg, graph.n_vertices)

    # one column per trial; every draw keeps its own seeded stream and only
    # the draws run per trial
    truth = random_bandlimited_block(basis, omega, _trial_rngs(
        cfg.seed, _STREAM_SIGNAL, range(cfg.trials)), cfg.offband_energy)
    noisy = np.empty((cfg.trials, graph.n_vertices))  # row t: trial t's noise
    for rng, row in zip(_trial_rngs(cfg.seed, _STREAM_NOISE, range(cfg.trials)), noisy):
        rng.standard_normal(out=row)
    noisy *= model.sigma
    noisy += truth.T
    observed = noisy.T  # truth plus noise, one column per trial
    truth_norm = np.linalg.norm(truth, axis=0)
    finish("draws")

    op = BandOperator(basis, omega, partition)
    gains, measured = [], []
    for scheme in cfg.schemes:
        if scheme in _PER_TRIAL:  # one M per column, keyed by the scheme itself
            weights = draw_weights(scheme, partition, _trial_rngs(cfg.seed,
                _STREAM_WEIGHTS, range(cfg.trials), WEIGHT_SCHEMES.index(scheme)))
        else:
            weights = make_weights(scheme, partition, noise=model)
        gains.append(op.gain(weights))
        measured.append(measure(observed, weights))
    factors = dict(zip(cfg.schemes, op.contractions(gains)))
    finish("weights")
    curves = {}
    for scheme, gain, m in zip(cfg.schemes, gains, measured):
        errors = op.iterate(gain, m, cfg.max_iterations, truth=truth).errors
        curves[scheme] = errors.T / truth_norm[:, None]
    finish("sweeps")

    return ExperimentReport(
        config=cfg,
        omega=omega,
        band_dim=band_dim,
        n_max=n_max,
        n_sets=partition.n_sets,
        c_max=metrics.c_max,
        gamma=gamma,
        mean_rel_error={s: curves[s].mean(axis=0) for s in cfg.schemes},
        std_rel_error={s: curves[s].std(axis=0) for s in cfg.schemes},
        steady_errors={s: curves[s][:, -1].copy() for s in cfg.schemes},
        contraction={s: factors[s][0] for s in cfg.schemes},
        spectral_radius={s: factors[s][1] for s in cfg.schemes},
        timings=timings,
    )


# ---------------------------------------------------------------------------
# Persistence


def format_report_csv(report: ExperimentReport) -> str:
    """CSV body: scheme,iteration,mean_rel_error,std_rel_error.

    Floats are serialized with repr (shortest round-trip form): reruns are
    byte-identical for one numpy, BLAS kernel and thread count, and across
    those the rgg configs agree within rtol 1e-9, atol 1e-12.
    """
    lines = ["scheme,iteration,mean_rel_error,std_rel_error"]
    for scheme in report.config.schemes:
        mean = report.mean_rel_error[scheme]
        std = report.std_rel_error[scheme]
        for k in range(mean.size):
            lines.append(f"{scheme},{k},{float(mean[k])!r},{float(std[k])!r}")
    return "\n".join(lines) + "\n"


def write_report_csv(report: ExperimentReport, path: str | Path) -> None:
    Path(path).write_text(format_report_csv(report), encoding="utf-8")


def write_report_meta(report: ExperimentReport, path: str | Path) -> None:
    """Sidecar JSON echoing the config, the resolved run parameters, each
    scheme's contraction factor and spectral radius, the stage timings in
    seconds and the time of writing."""
    payload = {
        "name": report.config.name,
        "config": asdict(report.config),
        "resolved": {
            "omega": report.omega,
            "band_dim": report.band_dim,
            "n_max": report.n_max,
            "n_sets": report.n_sets,
            "c_max": report.c_max,
            "gamma": report.gamma,
            "gamma_warning": report.gamma >= 1.0,
        },
        "steady_state": {
            s: {
                "mean": float(report.mean_rel_error[s][-1]),
                "std": float(report.std_rel_error[s][-1]),
            }
            for s in report.config.schemes
        },
        "iteration": {
            s: {
                "contraction": report.contraction[s],
                "spectral_radius": report.spectral_radius[s],
            }
            for s in report.config.schemes
        },
        "seed": report.config.seed,
        "timings": report.timings,
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

