import json
import re

import pytest

import graphlmr as glm
from graphlmr.cli import _floored, main

CONFIG = """
name = cli-check
graph = grid
graph.rows = 8
graph.cols = 8
omega = 0.1
n_max = 2
schemes = uniform
noise = none
trials = 3
max_iterations = 20
seed = 7
"""


@pytest.fixture()
def edge_file(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text("# path on four vertices\n0 1\n1 2\n2 3\n", encoding="utf-8")
    return path


def test_info(edge_file, capsys):
    assert main(["info", "--graph", str(edge_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "vertices: 4"
    assert out[1] == "edges: 3"
    assert out[2].startswith("lambda_2: 0.58578643762690")
    assert out[3].startswith("lambda_max: 3.41421356")


def test_info_spectrum_range_matches_eigendecompose(grid20, tmp_path, capsys):
    graph, basis = grid20
    path = tmp_path / "grid.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges), encoding="utf-8")
    assert main(["info", "--graph", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["vertices: 400", f"edges: {graph.n_edges}"]
    assert out[2].startswith("lambda_2: ") and out[3].startswith("lambda_max: ")
    lam2 = float(out[2].removeprefix("lambda_2: "))
    lam_max = float(out[3].removeprefix("lambda_max: "))
    assert lam2 == pytest.approx(basis.eigenvalues[1], rel=1e-12)
    assert lam_max == pytest.approx(basis.eigenvalues[-1], rel=1e-12)


def test_partition_writes_valid_file(edge_file, tmp_path, capsys):
    out = tmp_path / "sets.txt"
    assert main(["partition", "--graph", str(edge_file),
                 "--nmax", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "2 sets" in stdout and "C_max" in stdout
    partition = glm.read_partition(out)
    assert partition.sets == ((0, 1), (2, 3))
    graph = glm.load_edge_list(edge_file)
    assert glm.validate_partition(graph, partition) == []


def test_run_writes_csv_and_meta(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "cli-check:" in stdout and "gamma" in stdout
    csv_text = (out_dir / "cli-check.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("scheme,iteration,mean_rel_error,std_rel_error\n")
    meta = json.loads((out_dir / "cli-check_meta.json").read_text(encoding="utf-8"))
    assert meta["name"] == "cli-check"
    assert meta["resolved"]["n_sets"] == 32


def test_run_warns_when_the_iteration_diverges(tmp_path, capsys):
    # sets of up to 12 vertices make optimal_dirac's I - M expand (radius 1.07)
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        "name = diverge\ngraph = rgg\ngraph.n = 300\ngraph.radius = 0.09\n"
        "band_dim = 10\nn_max = 12\nschemes = optimal uniform optimal_dirac\n"
        "noise = grouped\nnoise.sigma = 1e-4 2e-4 5e-4\ntrials = 2\n"
        "max_iterations = 3\nseed = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        "warning: gamma >= 1, no a-priori guarantee",
        "warning: optimal_dirac: spectral radius 1.07099 >= 1, "
        "the iteration diverges",
    ]
    assert "spectral radius" not in out
    meta = json.loads((tmp_path / "diverge_meta.json").read_text(encoding="utf-8"))
    assert meta["iteration"]["optimal_dirac"]["spectral_radius"] >= 1.0
    assert meta["iteration"]["uniform"]["spectral_radius"] < 1.0


def test_run_band_dim_splitting_tied_eigenvalues_exit_2(tmp_path, capsys):
    # lambda_2 = lambda_3 on the 8 x 8 grid: no band holds just one of them
    cfg = tmp_path / "tied.cfg"
    cfg.write_text(CONFIG.replace("omega = 0.1", "band_dim = 2"), encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: band_dim = 2 splits tied eigenvalues "
                          "lambda_2 .. lambda_3 = [")
    assert not (tmp_path / "cli-check.csv").exists()


def test_run_band_dim_above_vertex_count_exit_2(tmp_path, capsys):
    # a 3 x 3 grid has 9 eigenvalues, so no band holds 50 of them
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(CONFIG.replace("omega = 0.1", "band_dim = 50")
                   .replace("rows = 8", "rows = 3").replace("cols = 8", "cols = 3")
                   .replace("n_max = 2", "n_max = 1"), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: band_dim = 50 exceeds the 9 graph vertices\n"
    assert not out_dir.exists()


def test_run_band_cutoff_at_zero_without_n_max_exit_2(tmp_path, capsys):
    # one vertex, no edge: its one eigenvalue is 0, which suggests no set size
    text = "name = lone\ngraph = path\ngraph.n = 1\nband_dim = 1\nschemes = uniform\n"
    cfg = tmp_path / "lone.cfg"
    cfg.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: band_dim = 1 puts the cutoff at 0 (the graph has no "
                   "edges); set n_max\n")
    assert not out_dir.exists()
    # with a set size the same run needs no suggestion
    cfg.write_text(text + "n_max = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0


def test_failed_run_makes_no_out_dir(tmp_path, capsys):
    cfg = tmp_path / "tied.cfg"
    cfg.write_text(CONFIG.replace("omega = 0.1", "band_dim = 2"), encoding="utf-8")
    out_dir = tmp_path / "new" / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: band_dim = 2 splits")
    assert not (tmp_path / "new").exists()


def test_run_with_noise_fractions_exit_2(tmp_path, capsys):
    # grouped noise splits the vertices in equal shares; no key sets them
    cfg = tmp_path / "fractions.cfg"
    cfg.write_text(CONFIG.replace("noise = none", "noise = grouped\n"
                                  "noise.sigma = 1e-3 2e-3\nnoise.fractions = 0.5 0.5"),
                   encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 11: unknown key 'noise.fractions'\n"
    assert not out_dir.exists()


def test_run_with_fewer_sets_than_band_dimensions_exit_2(tmp_path, capsys):
    # sets of up to 16 vertices cut the 8 x 8 grid into 4 sets; 4 readings
    # cannot determine 9 band coefficients
    cfg = tmp_path / "few.cfg"
    cfg.write_text(CONFIG.replace("omega = 0.1", "band_dim = 9")
                   .replace("n_max = 2", "n_max = 16"), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 4 sets cannot determine a band of dimension 9; "
                   "lower n_max or the band\n")
    assert not out_dir.exists()


def test_run_writes_to_the_working_directory_by_default(tmp_path, capsys,
                                                        monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "cli-check.csv").is_file()
    assert (tmp_path / "cli-check_meta.json").is_file()


def test_run_rerun_identical_bytes(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out-dir", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--out-dir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "cli-check.csv").read_bytes() == (b / "cli-check.csv").read_bytes()


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda tmp: ["info", "--graph", str(tmp / "absent.edges")],
        lambda tmp: ["run", "--config", str(tmp / "absent.cfg")],
        lambda tmp: ["partition", "--graph", str(tmp / "bad.edges"),
                     "--nmax", "2", "--out", str(tmp / "o.txt")],
        lambda tmp: ["run", "--config", str(tmp / "bad_edges.cfg")],
    ],
)
def test_errors_exit_2(tmp_path, capsys, argv_builder):
    (tmp_path / "bad.edges").write_text("0 0\n", encoding="utf-8")
    (tmp_path / "bad_edges.cfg").write_text(
        f"graph = edgelist\ngraph.path = {tmp_path / 'bad.edges'}\nomega = 0.1\n"
        "schemes = uniform\n", encoding="utf-8")
    assert main(argv_builder(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["partition", "--graph", "g.edges", "--nmax", "2", "--out", "o.txt", "--header"],
    ["info", "--graph", "g.edges", "--index-base", "1"],
])
def test_edge_list_format_flags_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_partition_help_lists_its_three_options(capsys):
    with pytest.raises(SystemExit):
        main(["partition", "--help"])
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--graph", "--nmax", "--out"}


def test_partition_empty_edge_list_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("# no edges at all\n\n", encoding="utf-8")
    out = tmp_path / "sets.txt"
    assert main(["partition", "--graph", str(path), "--nmax", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: the graph has no vertices to partition\n"
    assert not out.exists()


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("graph = hypercube\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "graph must be one of" in err


@pytest.mark.parametrize("value, text", [
    (2.01824e-15, "< 1e-12"), (0.0, "< 1e-12"), (9.99e-13, "< 1e-12"),
    (1e-12, "1e-12"), (3.66e-3, "0.00366"), (1.234567891e-5, "1.23457e-05"),
])
def test_steady_state_errors_print_with_a_floor(value, text):
    assert _floored(value) == text


def test_noise_free_run_prints_the_floor(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("max_iterations = 20", "max_iterations = 200"),
                   encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert "uniform: steady-state relative error < 1e-12 (std < 1e-12)" in stdout
