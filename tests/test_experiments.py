import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphlmr as glm
from graphlmr import ConfigError, spectral
from graphlmr.cli import _floored, main
from graphlmr.experiments import (
    _KEYS,
    _build_noise_model,
    _resolve_omega,
    _rng,
    _trial_rngs,
    format_report_csv,
)
from oracles import bootstrap_gap_quantile

REPO = Path(__file__).resolve().parent.parent

GRID_CFG = """
# noise-free convergence on a small grid
name = grid-small
graph = grid
graph.rows = 10
graph.cols = 10
omega = 0.1
n_max = 2
schemes = uniform, random
noise = none
trials = 8
max_iterations = 40
seed = 2
"""


def test_parse_config_full():
    cfg = glm.parse_config(GRID_CFG)
    assert cfg.name == "grid-small"
    assert cfg.graph.kind == "grid" and cfg.graph.rows == 10
    assert cfg.omega == 0.1 and cfg.band_dim is None
    assert cfg.schemes == ("uniform", "random")
    assert cfg.noise.kind == "none"
    assert cfg.trials == 8 and cfg.max_iterations == 40 and cfg.seed == 2


def test_parse_config_defaults():
    cfg = glm.parse_config(
        "graph = path\ngraph.n = 8\nomega = 0.2\nschemes = uniform\n"
    )
    assert cfg.name == "experiment"
    assert cfg.trials == 100 and cfg.max_iterations == 100 and cfg.seed == 0
    assert cfg.offband_energy == 0.0 and cfg.n_max is None


@pytest.mark.parametrize(
    "text,match",
    [
        ("graph = torus\n", "graph must be one of"),
        ("omega = 0.1\nschemes = uniform\n", "missing required key 'graph'"),
        ("graph = path\ngraph.n = 8\nschemes = uniform\n", "omega / band_dim"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nband_dim = 3\nschemes = uniform\n",
         "omega / band_dim"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\n", "missing required key 'schemes'"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = best\n", "unknown scheme"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform uniform\n",
         "must not repeat"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\nbogus = 1\n",
         "unknown key"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nomega = 0.2\nschemes = uniform\n",
         "duplicate key"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\nnot a pair\n",
         "expected 'key = value'"),
        ("graph = path\ngraph.n = 8\nomega = -1\nschemes = uniform\n",
         "omega must be positive"),
        ("graph = path\ngraph.n = 8\nband_dim = 0\nschemes = uniform\n",
         "band_dim"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\ntrials = 0\n",
         "trials"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "offband_energy = 1.0\n", "offband_energy"),
        ("graph = rgg\ngraph.n = 50\nomega = 0.1\nschemes = uniform\n",
         "requires graph.radius"),
        ("graph = grid\ngraph.rows = 3\ngraph.cols = 3\ngraph.radius = 0.1\n"
         "omega = 0.1\nschemes = uniform\n", "does not apply"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = none\nnoise.sigma = 0.1\n",
         "noise.sigma does not apply to noise = none"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = iid\n", "requires noise.sigma"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = iid\nnoise.sigma = 0.1 0.2\n", "exactly one sigma"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = optimal\n",
         "require noise"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = ,\n",
         "schemes must be nonempty"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = grouped\nnoise.sigma = ,\n", "needs at least one sigma"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = iid\nnoise.sigma = 1e-3x\n",
         r"bad value for noise\.sigma: '1e-3x'"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = iid\nnoise.sigma = -0.1\n", "noise.sigma entries must be nonnegative"),
        ("graph = path\ngraph.n = 8\nomega =\nschemes = uniform\n",
         "empty value for 'omega'"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\nn_max = 0\n",
         "n_max must be at least 1"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "max_iterations = 0\n", "max_iterations must be at least 1"),
        # non-finite floats fail at parse time, naming the key
        ("graph = path\ngraph.n = 8\nomega = inf\nschemes = uniform\n",
         "bad value for omega: 'inf'"),
        ("graph = path\ngraph.n = 8\nomega = nan\nschemes = uniform\n",
         "bad value for omega: 'nan'"),
        ("graph = rgg\ngraph.n = 50\ngraph.radius = inf\nomega = 0.1\n"
         "schemes = uniform\n", r"bad value for graph\.radius: 'inf'"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "offband_energy = nan\n", "bad value for offband_energy: 'nan'"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = grouped\nnoise.sigma = 1e-4 -inf\n",
         r"bad value for noise\.sigma: '1e-4 -inf'"),
        # ranges that used to fail only inside the generators or the seeding
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\nseed = -1\n",
         "seed must be nonnegative"),
        ("graph = path\ngraph.n = 0\nomega = 0.1\nschemes = uniform\n",
         r"graph\.n must be at least 1"),
        ("graph = grid\ngraph.rows = 0\ngraph.cols = 3\nomega = 0.1\n"
         "schemes = uniform\n", r"graph\.rows must be at least 1"),
        ("graph = grid\ngraph.rows = 3\ngraph.cols = 0\nomega = 0.1\n"
         "schemes = uniform\n", r"graph\.cols must be at least 1"),
        ("graph = rgg\ngraph.n = 50\ngraph.radius = -1\nomega = 0.1\n"
         "schemes = uniform\n", r"graph\.radius must be positive"),
        ("graph = rgg\ngraph.n = 50\ngraph.radius = 0\nomega = 0.1\n"
         "schemes = uniform\n", r"graph\.radius must be positive"),
        # an edge list has one format, set by no key
        ("graph = edgelist\ngraph.path = g.edges\nomega = 0.1\nschemes = uniform\n"
         "graph.index_base = 0\n", r"line 5: unknown key 'graph\.index_base'"),
        ("graph = edgelist\ngraph.path = g.edges\nomega = 0.1\nschemes = uniform\n"
         "graph.header = false\n", r"line 5: unknown key 'graph\.header'"),
        ("graph = edgelist\ngraph.path = g.edges\nomega = 0.1\nschemes = uniform\n"
         "graph.dedup = false\n", r"line 5: unknown key 'graph\.dedup'"),
        # nor on any other kind, and whatever the value
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "graph.header = maybe\n", r"line 5: unknown key 'graph\.header'"),
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "graph.dedup = true\n", r"line 5: unknown key 'graph\.dedup'"),
        ("graph = grid\ngraph.rows = 3\ngraph.cols = 3\nomega = 0.1\n"
         "schemes = uniform\ngraph.header = true\n",
         r"line 6: unknown key 'graph\.header'"),
        ("graph = grid\ngraph.rows = 3\ngraph.cols = 3\nomega = 0.1\n"
         "schemes = uniform\ngraph.index_base = 1\n",
         r"line 6: unknown key 'graph\.index_base'"),
        ("graph = rgg\ngraph.n = 50\ngraph.radius = 0.3\nomega = 0.1\n"
         "schemes = uniform\ngraph.dedup = no\n", r"line 6: unknown key 'graph\.dedup'"),
        # grouped noise splits the vertices in equal shares, set by no key
        ("graph = path\ngraph.n = 8\nomega = 0.1\nschemes = uniform\n"
         "noise = grouped\nnoise.sigma = 1e-4 2e-4\nnoise.fractions = 0.5 0.5\n",
         r"line 7: unknown key 'noise\.fractions'"),
    ],
)
def test_parse_config_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        glm.parse_config(text)


# every kind of the graph and noise sections: the keys of its section that
# it takes, all of them required
SECTION_KINDS = {
    ("graph", "path"): ("n",),
    ("graph", "grid"): ("rows", "cols"),
    ("graph", "rgg"): ("n", "radius"),
    ("graph", "edgelist"): ("path",),
    ("noise", "none"): (),
    ("noise", "iid"): ("sigma",),
    ("noise", "grouped"): ("sigma",),
}
# a value that parses for every key of the two sections
SECTION_VALUES = {
    "graph.n": "8", "graph.rows": "3", "graph.cols": "3", "graph.radius": "0.3",
    "graph.path": "g.edges", "noise.sigma": "0.1",
}


def _section_config(section: str, kind: str, names) -> str:
    """A config whose ``section`` is ``kind`` with the keys ``names`` set."""
    keys = {"graph": "path", "graph.n": "8", "omega": "0.1", "schemes": "uniform"}
    keys = {k: v for k, v in keys.items() if k.split(".")[0] != section}
    keys[section] = kind
    keys.update((f"{section}.{n}", SECTION_VALUES[f"{section}.{n}"]) for n in names)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


@pytest.mark.parametrize("section, kind", list(SECTION_KINDS))
def test_parse_config_section_keys_follow_their_kind(section, kind):
    assert set(SECTION_VALUES) == {k for k in _KEYS if "." in k}
    kinds = [k for s, k in SECTION_KINDS if s == section]
    with pytest.raises(ConfigError, match=f"must be one of {', '.join(kinds)};"):
        glm.parse_config(_section_config(section, "bogus", ()))
    need = SECTION_KINDS[section, kind]
    cfg = glm.parse_config(_section_config(section, kind, need))
    assert getattr(cfg, section).kind == kind
    others = [key.partition(".")[2] for key in SECTION_VALUES
              if key.startswith(f"{section}.")
              and key.partition(".")[2] not in need]
    for name in need:
        # a missing key is reported before a foreign one
        rest = [n for n in need if n != name] + others[:1]
        message = rf"^{section} = {kind} requires {section}\.{name}$"
        with pytest.raises(ConfigError, match=message):
            glm.parse_config(_section_config(section, kind, rest))
    for name in others:
        message = rf"^{section}\.{name} does not apply to {section} = {kind}$"
        with pytest.raises(ConfigError, match=message):
            glm.parse_config(_section_config(section, kind, need + (name,)))


def test_parse_config_hash_inside_value_is_kept():
    cfg = glm.parse_config(
        "# leading comment\ngraph = edgelist\ngraph.path = data/run#1.edges\n"
        "omega = 0.1\nschemes = uniform\t# tab comment\nseed = 3  # note\n"
        "  # indented comment\n"
    )
    assert cfg.graph.path == "data/run#1.edges"
    assert cfg.seed == 3
    assert cfg.schemes == ("uniform",)


def test_run_experiment_noise_free_converges():
    report = glm.run_experiment(glm.parse_config(GRID_CFG))
    assert report.gamma < 1
    for scheme in report.config.schemes:
        curve = report.mean_rel_error[scheme]
        assert curve.shape == (41,)
        assert curve[-1] < 1e-8
        # noise-free mean curves are monotone nonincreasing (small slack)
        assert np.all(np.diff(curve) <= 1e-12)


def test_run_experiment_deterministic():
    a = glm.run_experiment(glm.parse_config(GRID_CFG))
    b = glm.run_experiment(glm.parse_config(GRID_CFG))
    assert format_report_csv(a) == format_report_csv(b)
    for scheme in a.config.schemes:
        assert np.array_equal(a.steady_errors[scheme], b.steady_errors[scheme])


NOISY_PATH_CFG = (
    "graph = path\ngraph.n = 16\nomega = 0.05\nn_max = 2\nschemes = uniform\n"
    "noise = iid\nnoise.sigma = {sigma}\ntrials = {trials}\nmax_iterations = 25\n"
    "seed = 1\n"
)


def test_run_experiment_errors_are_relative_to_the_truth():
    # redo each trial by hand: its own signal and noise streams, then ILMR
    cfg = glm.parse_config(NOISY_PATH_CFG.format(sigma=1e-2, trials=3))
    report = glm.run_experiment(cfg)
    graph = glm.path_graph(16)
    basis = glm.eigendecompose(glm.build_laplacian(graph))
    partition = glm.greedy_partition(graph, 2)
    w = glm.make_weights("uniform", partition)
    signal_rngs = _trial_rngs(1, 103, range(3))
    noise_rngs = _trial_rngs(1, 104, range(3))
    curves = []
    for signal_rng, noise_rng in zip(signal_rngs, noise_rngs):
        truth = glm.random_bandlimited(basis, 0.05, signal_rng)
        observed = truth + 1e-2 * noise_rng.standard_normal(16)
        run = glm.ilmr(
            glm.measure(observed, w), partition, w, basis,
            glm.ReconstructionConfig(omega=0.05, max_iterations=25,
                                     stop_tolerance=0.0, track_truth=truth),
        )
        curves.append(run.error_trace / np.linalg.norm(truth))
    curves = np.array(curves)
    assert np.allclose(report.steady_errors["uniform"], curves[:, -1],
                       rtol=1e-9, atol=1e-15)
    assert np.allclose(report.mean_rel_error["uniform"], curves.mean(axis=0),
                       rtol=1e-9, atol=1e-15)


def test_zero_sigma_noise_gives_the_noise_free_run():
    quiet = glm.run_experiment(glm.parse_config(NOISY_PATH_CFG.format(sigma=0, trials=3)))
    none = glm.run_experiment(glm.parse_config(
        NOISY_PATH_CFG.format(sigma=0, trials=3).replace(
            "noise = iid\nnoise.sigma = 0\n", "noise = none\n")))
    assert none.config.noise.kind == "none"
    assert np.array_equal(quiet.mean_rel_error["uniform"], none.mean_rel_error["uniform"])
    assert np.array_equal(quiet.steady_errors["uniform"], none.steady_errors["uniform"])


def test_leading_trials_do_not_depend_on_the_trial_count():
    # each trial draws its signal and noise from its own stream
    two = glm.run_experiment(glm.parse_config(NOISY_PATH_CFG.format(sigma=1e-2, trials=2)))
    five = glm.run_experiment(glm.parse_config(NOISY_PATH_CFG.format(sigma=1e-2, trials=5)))
    assert np.allclose(five.steady_errors["uniform"][:2], two.steady_errors["uniform"],
                       rtol=1e-12, atol=0.0)


def test_run_experiment_curve_lengths_match():
    cfg = glm.parse_config(
        "graph = path\ngraph.n = 16\nomega = 0.05\nn_max = 2\n"
        "schemes = uniform random dirac\nnoise = iid\nnoise.sigma = 1e-3\n"
        "trials = 4\nmax_iterations = 25\nseed = 1\n"
    )
    report = glm.run_experiment(cfg)
    lengths = {report.mean_rel_error[s].size for s in report.config.schemes}
    assert lengths == {26}
    assert all(report.steady_errors[s].size == 4 for s in report.config.schemes)


def test_smaller_nmax_converges_in_fewer_iterations():
    # same config except n_max: more sets mean more measurements per sweep
    base = """
graph = grid
graph.rows = 20
graph.cols = 20
omega = 0.03
n_max = {n_max}
schemes = uniform
noise = none
trials = 10
max_iterations = 60
seed = 5
"""
    def iterations_to(n_max, tol=1e-10):
        rep = glm.run_experiment(glm.parse_config(base.format(n_max=n_max)))
        assert rep.gamma < 1
        hits = np.nonzero(rep.mean_rel_error["uniform"] < tol)[0]
        assert hits.size, "did not reach tolerance"
        return int(hits[0])

    assert iterations_to(2) < iterations_to(4)


def test_gamma_warning_recorded_run_proceeds(tmp_path):
    cfg = glm.parse_config(
        "graph = grid\ngraph.rows = 6\ngraph.cols = 6\nomega = 1.5\nn_max = 4\n"
        "schemes = uniform\nnoise = none\ntrials = 2\nmax_iterations = 10\nseed = 0\n"
    )
    report = glm.run_experiment(cfg)
    assert report.gamma >= 1 and report.mean_rel_error["uniform"].size == 11
    glm.write_report_meta(report, tmp_path / "meta.json")
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    assert meta["resolved"]["gamma_warning"] is True


def test_band_dim_resolution(rgg300, grid20):
    _, basis = rgg300
    cfg = glm.parse_config(
        "graph = rgg\ngraph.n = 300\ngraph.radius = 0.09\nband_dim = 4\n"
        "n_max = 3\nschemes = uniform\nnoise = none\ntrials = 1\n"
        "max_iterations = 5\nseed = 1\n"
    )
    omega = _resolve_omega(cfg, basis)
    ev = basis.eigenvalues
    assert omega == pytest.approx(0.5 * (ev[3] + ev[4]))
    assert basis.band_dim(omega) == 4
    # band_dim = n is the top of the spectrum; beyond n there is no band
    small = glm.eigendecompose(glm.build_laplacian(glm.path_graph(3)))
    path = "graph = path\ngraph.n = 3\nband_dim = {}\nschemes = uniform\n"
    assert _resolve_omega(glm.parse_config(path.format(3)), small) == small.eigenvalues[-1]
    assert small.band_dim(small.eigenvalues[-1]) == 3
    for k in (4, 9):
        with pytest.raises(ConfigError,
                           match=rf"^band_dim = {k} exceeds the 3 graph vertices$"):
            _resolve_omega(glm.parse_config(path.format(k)), small)
    # lambda_2 = lambda_3 on a square grid: a cutoff between them keeps both
    _, grid = grid20
    tied = ("graph = grid\ngraph.rows = 20\ngraph.cols = 20\nband_dim = {}\n"
            "schemes = uniform\n")
    with pytest.raises(ConfigError, match=r"band_dim = 2 splits tied eigenvalues "
                       r"lambda_2 \.\. lambda_3 = \[0\.0246"):
        _resolve_omega(glm.parse_config(tied.format(2)), grid)
    assert grid.band_dim(_resolve_omega(glm.parse_config(tied.format(3)), grid)) == 3


@pytest.mark.parametrize("scheme, lists", [
    ("random", ["random", "uniform random", "random uniform", "dirac uniform random"]),
    ("dirac", ["dirac", "uniform dirac", "dirac random uniform", "random dirac"]),
])
def test_per_trial_scheme_curves_ignore_the_other_schemes(scheme, lists):
    # a per-trial scheme's weight stream is keyed by the scheme, so adding,
    # removing or reordering the others leaves its curves bit-identical
    base = ("graph = grid\ngraph.rows = 8\ngraph.cols = 8\nomega = 0.3\nn_max = 3\n"
            "noise = iid\nnoise.sigma = 1e-3\ntrials = 5\nmax_iterations = 10\n"
            "seed = 4\nschemes = {}\n")
    reports = [glm.run_experiment(glm.parse_config(base.format(s))) for s in lists]
    first = reports[0]
    for report in reports[1:]:
        for curves in ("mean_rel_error", "std_rel_error", "steady_errors"):
            assert np.array_equal(getattr(report, curves)[scheme],
                                  getattr(first, curves)[scheme]), curves
        assert report.contraction[scheme] == first.contraction[scheme]
        assert report.spectral_radius[scheme] == first.spectral_radius[scheme]


def test_nmax_defaults_to_suggestion():
    cfg = glm.parse_config(
        "graph = grid\ngraph.rows = 8\ngraph.cols = 8\nomega = 0.04\n"
        "schemes = uniform\nnoise = none\ntrials = 1\nmax_iterations = 3\nseed = 0\n"
    )
    report = glm.run_experiment(cfg)
    assert report.n_max == glm.suggest_nmax(0.04) == 3


def test_grouped_noise_assignment_counts():
    cfg = glm.parse_config(
        "graph = path\ngraph.n = 10\nomega = 0.1\nschemes = uniform\n"
        "noise = grouped\nnoise.sigma = 1.0 2.0\n"
        "trials = 1\nmax_iterations = 3\nseed = 4\n"
    )
    model = _build_noise_model(cfg, 10)
    assert sorted(model.sigma.tolist()).count(1.0) == 5
    assert np.array_equal(model.sigma, _build_noise_model(cfg, 10).sigma)


def test_grouped_noise_default_equal_fractions():
    # the cuts fall at the rounded cumulative shares: 56 vertices in 3 groups
    # are cut at round(56/3) = 19 and round(112/3) = 37, so the middle group
    # is the short one (np.array_split would give 19/19/18)
    for n, counts in ((9, [3, 3, 3]), (56, [19, 18, 19])):
        cfg = glm.parse_config(
            f"graph = path\ngraph.n = {n}\nomega = 0.1\nschemes = uniform\n"
            "noise = grouped\nnoise.sigma = 1.0 2.0 3.0\n"
            "trials = 1\nmax_iterations = 3\nseed = 4\n"
        )
        model = _build_noise_model(cfg, n)
        assert [int((model.sigma == v).sum()) for v in (1.0, 2.0, 3.0)] == counts


def test_iid_noise_dirac_trails_averaging_weights(rgg300_sets3):
    # with iid noise, decimation-style sampling forfeits in-set averaging
    cfg = glm.parse_config(
        "name = iid-order\ngraph = rgg\ngraph.n = 300\ngraph.radius = 0.09\n"
        "band_dim = 4\nn_max = 3\nschemes = uniform random dirac\n"
        "noise = iid\nnoise.sigma = 1e-3\ntrials = 60\nmax_iterations = 60\nseed = 1\n"
    )
    report = glm.run_experiment(cfg)
    assert report.gamma < 1
    for scheme in ("uniform", "random"):
        gap = bootstrap_gap_quantile(
            report.steady_errors[scheme], report.steady_errors["dirac"]
        )
        assert gap > 0.0, f"{scheme} did not beat dirac at 95% confidence"


def test_offband_energy_raises_floor():
    base = (
        "graph = rgg\ngraph.n = 300\ngraph.radius = 0.09\nband_dim = 4\n"
        "n_max = 3\nschemes = uniform dirac\nnoise = none\n"
        "trials = 20\nmax_iterations = 60\nseed = 1\noffband_energy = {e}\n"
    )
    hi = glm.run_experiment(glm.parse_config(base.format(e="1e-2")))
    lo = glm.run_experiment(glm.parse_config(base.format(e="1e-4")))
    hi, lo = hi.mean_rel_error, lo.mean_rel_error
    for scheme in ("uniform", "dirac"):
        assert hi[scheme][-1] > lo[scheme][-1]
    # residual out-of-band energy sets the floor near sqrt(e)
    assert 0.05 < hi["uniform"][-1] < 0.3
    assert hi["uniform"][-1] < hi["dirac"][-1]


def test_csv_format(tmp_path):
    report = glm.run_experiment(glm.parse_config(GRID_CFG))
    path = tmp_path / "out.csv"
    glm.write_report_csv(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,iteration,mean_rel_error,std_rel_error"
    assert len(lines) == 1 + 2 * 41
    scheme, iteration, mean, std = lines[1].split(",")
    assert scheme == "uniform" and iteration == "0"
    assert float(mean) == report.mean_rel_error["uniform"][0]
    assert float(std) == report.std_rel_error["uniform"][0]


def test_meta_sidecar(tmp_path):
    report = glm.run_experiment(glm.parse_config(GRID_CFG))
    path = tmp_path / "meta.json"
    glm.write_report_meta(report, path)
    meta = json.loads(path.read_text(encoding="utf-8"))
    assert meta["name"] == "grid-small"
    assert meta["resolved"]["gamma"] == pytest.approx(report.gamma)
    assert meta["resolved"]["n_sets"] == report.n_sets
    assert meta["config"]["seed"] == 2
    assert "written_at" in meta
    assert set(meta["steady_state"]) == {"uniform", "random"}
    assert meta["timings"] == report.timings
    assert meta["iteration"] == {
        s: {"contraction": report.contraction[s],
            "spectral_radius": report.spectral_radius[s]}
        for s in ("uniform", "random")
    }
    # the radius never exceeds the norm; they agree (to rounding) when I - M
    # is symmetric, as under uniform weights
    for s in report.config.schemes:
        assert 0.0 <= report.spectral_radius[s] <= report.contraction[s] * (1 + 1e-12)
        assert report.contraction[s] < 1.0


@pytest.mark.parametrize("band", ["omega = 0.1", "band_dim = 4"])
def test_run_outputs_agree(tmp_path, capsys, band):
    # the meta JSON and the printed steady state are read off the curves,
    # stopped while they still move
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GRID_CFG.replace("omega = 0.1", band).replace(
        "noise = none", "noise = iid\nnoise.sigma = 1e-3").replace(
        "max_iterations = 40", "max_iterations = 4"), encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    meta = json.loads((tmp_path / "grid-small_meta.json").read_text(encoding="utf-8"))
    csv = (tmp_path / "grid-small.csv").read_text(encoding="utf-8").splitlines()
    # the last row of each scheme wins
    last = {s: (float(mean), float(std))
            for s, _, mean, std in (line.split(",") for line in csv[1:])}
    for s in ("uniform", "random"):
        steady = meta["steady_state"][s]
        assert (steady["mean"], steady["std"]) == last[s]
        assert (f"  {s}: steady-state relative error {_floored(steady['mean'])} "
                f"(std {_floored(steady['std'])})") in stdout
    resolved = meta["resolved"]
    assert resolved["gamma_warning"] == (resolved["gamma"] >= 1)
    basis = glm.eigendecompose(glm.build_laplacian(glm.grid_graph(10, 10)))
    assert resolved["band_dim"] == basis.band_dim(resolved["omega"])


@pytest.mark.parametrize("key", [(0,), (1, 103, 5), (7, 105, 99, 2),
                                 (2**32 - 1, 101), (2**40, 104, 3)])
def test_rng_draws_what_default_rng_draws(key):
    want = np.random.default_rng(np.random.SeedSequence(list(key)))
    got = _rng(*key)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(5), want.random(5))
    assert np.array_equal(got.standard_normal(3), want.standard_normal(3))


def test_rng_rejects_negative_keys():
    with pytest.raises(ValueError):
        _rng(1, -2)


@pytest.mark.parametrize("seed", [0, 1, 2, 2**40 + 5, 2**70])
@pytest.mark.parametrize("trials, tail", [
    (range(7), ()), (range(7), (3,)), (range(3), (2**33,)),
    (range(2**32 - 3, 2**32), (1,)),  # the largest trial indices
])
def test_trial_rngs_seed_what_one_rng_per_key_seeds(seed, trials, tail):
    rngs = _trial_rngs(seed, 104, trials, *tail)
    assert len(rngs) == len(trials)
    for t, got in zip(trials, rngs):
        want = _rng(seed, 104, t, *tail)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.standard_normal(3), want.standard_normal(3))


def test_trial_rngs_reject_negative_keys_and_too_many_trials():
    with pytest.raises(ValueError):
        _trial_rngs(1, 104, range(2), -1)
    for trials in (range(-1, 2), range(2**32 + 1)):
        with pytest.raises(ValueError, match="trial indices"):
            _trial_rngs(1, 104, trials)


def test_report_times_every_stage():
    report = glm.run_experiment(glm.parse_config(GRID_CFG))
    assert list(report.timings) == ["graph", "laplacian", "eigendecompose",
                                    "partition", "metrics", "draws", "weights",
                                    "sweeps"]
    assert all(t >= 0.0 for t in report.timings.values())
    assert report.timings["sweeps"] > 0.0


def test_shipped_configs_parse():
    # parsing reads no graph data, so the Minnesota config parses without it
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))
    assert {p.stem for p in paths} >= {
        "grid_convergence", "minnesota_grouped", "rgg_grouped_weights", "rgg_snr30"}
    for path in paths:
        cfg = glm.load_config(path)
        assert cfg.name and cfg.schemes and cfg.trials >= 1, path.name


def test_readme_config_table_matches_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")]
    documented = {key for cell in rows for key in re.findall(r"`([^`]+)`", cell)}
    assert documented == set(_KEYS)
    for key in documented:  # each documented key gets past the key check
        with pytest.raises(ConfigError) as info:
            glm.parse_config(f"{key} = -1\n")
        assert "unknown key" not in str(info.value), key


def test_readme_quick_start_prints_what_it_shows():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    code, printed = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)
    env = {**os.environ, "PYTHONPATH": str(Path(glm.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == printed


def test_bootstrap_gap_quantile():
    rng = np.random.default_rng(0)
    small = rng.normal(1.0, 0.1, size=200)
    large = small + 0.5
    assert bootstrap_gap_quantile(small, large) > 0.0
    assert bootstrap_gap_quantile(small, small) <= 0.0
    with pytest.raises(ValueError):
        bootstrap_gap_quantile(small, large[:10])


@pytest.mark.parametrize("cfg_text, drawn", [
    (GRID_CFG, False),
    ("graph = rgg\ngraph.n = 60\ngraph.radius = 0.3\nband_dim = 4\ntrials = 2\n"
     "max_iterations = 5\nnoise = iid\nnoise.sigma = 0.1\nschemes = uniform\n", True),
])
def test_no_stage_is_charged_for_loading_numpy_random(cfg_text, drawn):
    # importing the package leaves numpy.random unloaded (where numpy does);
    # a run loads it where it is first needed, and the import, made to take
    # 1000 s of a fake clock, shows in no stage; a grid loads it after the
    # solver, so that its pages stay off the solver's memory peak
    code = (
        "import importlib.abc, sys, types\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "import graphlmr as glm\n"
        "deferred = eager or 'numpy.random' not in sys.modules\n"
        "now, loaded = [0.0], []\n"
        "class Slow(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'numpy.random':\n"
        "            now[0] += 1000.0\n"
        "sys.meta_path.insert(0, Slow())\n"
        "def clock():\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "    now[0] += 1.0\n"
        "    return now[0]\n"
        "glm.experiments.time = types.SimpleNamespace(perf_counter=clock)\n"
        f"report = glm.run_experiment(glm.parse_config({cfg_text!r}))\n"
        "print(deferred, max(report.timings.values()) < 1000.0, loaded[0], loaded[3])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(glm.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    # loaded[3]: numpy.random's state when the eigendecompose stage ends
    assert proc.stdout.splitlines()[-1] == f"True True {drawn} {drawn}"


def test_desk_scale_run_never_imports_scipy(tmp_path):
    code = (
        "import sys\n"
        "from graphlmr.cli import main\n"
        f"code = main(['run', '--config', {str(REPO / 'configs' / 'rgg_snr30.cfg')!r},"
        f" '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(glm.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_run_without_scipy_gives_the_in_place_report(monkeypatch):
    pytest.importorskip("scipy.linalg")
    cfg = glm.parse_config(GRID_CFG.replace("graph.rows = 10", "graph.rows = 40")
                           .replace("graph.cols = 10", "graph.cols = 40"))
    assert 40 * 40 >= spectral._IN_PLACE_MIN_N
    solved, real = [], spectral._eigh_in_place

    def solver(lap):
        solved.append(real(lap))
        return solved[-1]

    monkeypatch.setattr(spectral, "_eigh_in_place", solver)
    with_scipy = glm.run_experiment(cfg)
    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    without = glm.run_experiment(cfg)
    assert [s is None for s in solved] == [False, True]  # in place, then eigh
    assert format_report_csv(without) == format_report_csv(with_scipy)
    assert without.contraction == with_scipy.contraction
    assert without.spectral_radius == with_scipy.spectral_radius
