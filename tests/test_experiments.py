"""Config parsing, sweep execution, output files, and the CLI."""

import subprocess
import sys

import numpy as np
import pytest

import repsc
from repsc.cli import main
from repsc.experiments import CSV_COLUMNS, parse_layer_range, write_line_chart_svg
from conftest import same_partition


def sweep_config(out_dir, extra=""):
    return (
        "mode = d_regular_sweep\n"
        "algorithms = usc, urepsc\n"
        "n_values = 24\n"
        "k_values = 2\n"
        "d_values = 6\n"
        "trials = 2\n"
        f"out = {out_dir}\n" + extra
    )


def test_parse_config_full_grammar(tmp_path):
    text = (
        "# comment line\n"
        "mode = planted_partition_sweep\n"
        "algorithms = usc, nrepsc_approx\n"
        "n_values = 20, 40\n"
        "k_values = 2\n"
        "rank_values = 3\n"
        "p_in = 0.9   # trailing comment\n"
        "plots = yes\n"
        "rep_layers = 2..4\n"
        f"out = {tmp_path}\n"
    )
    cfg = repsc.parse_config_text(text)
    assert cfg.mode == "planted_partition_sweep"
    assert cfg.algorithms == ("usc", "nrepsc_approx")
    assert cfg.n_values == (20, 40) and cfg.rank_values == (3,)
    assert cfg.p_in == 0.9
    assert cfg.plots is True
    assert cfg.rep_layers == (2, 4)


@pytest.mark.parametrize(
    "text",
    [
        "mode = d_regular_sweep\n",  # no algorithms
        "algorithms = usc\n",  # no mode
        "mode = bogus\nalgorithms = usc\nn_values = 8\nk_values = 2\nd_values = 2\n",
        "mode = d_regular_sweep\nalgorithms = wavelets\nn_values = 8\nk_values = 2\nd_values = 2\n",
        "mode = d_regular_sweep\nalgorithms = usc\nn_values = 8\nk_values = 2\n",  # no d
        "planted = partition\nmode = d_regular_sweep\nalgorithms = usc\n",  # unknown key
        "mode = d_regular_sweep\nmode = d_regular_sweep\nalgorithms = usc\n",  # duplicate
        "mode = d_regular_sweep\nalgorithms = usc\ntrials = zero\n",  # bad int
        "mode = d_regular_sweep\nalgorithms = usc\nplots = maybe\n",  # bad bool
        "mode d_regular_sweep\nalgorithms = usc\n",  # no equals sign
        "mode = planted_partition_sweep\nalgorithms = usc\nk_values = 2\n",  # no n
        "mode = real_network\nalgorithms = usc\nk_values = 2\n",  # no file
        "mode = d_regular_sweep\nalgorithms = usc\nn_values = 8\nk_values = 2\nd_values = 2\ntrials = 0\n",
    ],
)
def test_parse_config_rejections(text):
    with pytest.raises(repsc.ConfigError):
        repsc.parse_config_text(text)


def test_parse_layer_range():
    assert parse_layer_range("3") == (3, 3)
    assert parse_layer_range("2..5") == (2, 5)
    with pytest.raises(repsc.ConfigError):
        parse_layer_range("5..2")
    with pytest.raises(repsc.ConfigError):
        parse_layer_range("1..2..3")


def test_small_sweep_rows(tmp_path):
    cfg = repsc.parse_config_text(sweep_config(tmp_path / "run"))
    result = repsc.run_experiment(cfg)
    assert len(result.rows) == 4  # 1 grid point x 2 trials x 2 algorithms
    assert result.error_count == 0
    for row in result.rows:
        assert row["seed"] == row["trial"]  # base_seed defaults to 0
        assert 0.0 <= row["accuracy_nodes"] <= 1.0
        assert row["mistake_fraction"] == pytest.approx(
            2.0 * (1.0 - row["accuracy_nodes"]), abs=1e-12
        )
        assert row["gamma"] > 0.0
        assert row["runtime_ms"] >= 0.0
    header = (tmp_path / "run" / "results.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert (tmp_path / "run" / "aggregate.csv").exists()


def test_sweep_deterministic_except_runtime(tmp_path):
    runtime_col = CSV_COLUMNS.index("runtime_ms")

    def normalized_lines(out_dir):
        cfg = repsc.parse_config_text(sweep_config(out_dir))
        repsc.run_experiment(cfg)
        lines = (out_dir / "results.csv").read_text().splitlines()
        stripped = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[runtime_col] = ""
            stripped.append(",".join(cells))
        return [lines[0]] + stripped

    assert normalized_lines(tmp_path / "a") == normalized_lines(tmp_path / "b")


def test_aggregate_means_match_rows(tmp_path):
    cfg = repsc.parse_config_text(sweep_config(tmp_path / "agg"))
    result = repsc.run_experiment(cfg)
    lines = (tmp_path / "agg" / "aggregate.csv").read_text().splitlines()
    header = lines[0].split(",")
    table = [line.split(",") for line in lines[1:]]
    assert len(table) == 2  # one aggregate row per algorithm
    for cells in table:
        algorithm = cells[header.index("algorithm")]
        matching = [row for row in result.rows if row["algorithm"] == algorithm]
        assert cells[header.index("n_runs")] == "2"
        expected_mean = np.mean([row["rcut"] for row in matching])
        assert float(cells[header.index("rcut_mean")]) == pytest.approx(expected_mean)


def test_expected_case_check_passes(tmp_path):
    text = (
        "mode = expected_case_check\n"
        "algorithms = usc, urepsc, nrepsc\n"
        "n_values = 24\n"
        "k_values = 2\n"
        "d_values = 6\n"
        f"out = {tmp_path / 'chk'}\n"
    )
    lines, ok = repsc.check_expected(repsc.parse_config_text(text))
    assert ok
    assert sum(line.startswith("PASS") for line in lines) == 2
    assert sum(line.startswith("INFO") for line in lines) == 1  # usc is reported only


def test_error_rows_do_not_stop_the_sweep(tmp_path):
    # A dense random representation graph leaves a one-dimensional constraint
    # null space, so the constrained algorithm fails while plain spectral
    # clustering runs fine on the same graphs.
    text = (
        "mode = planted_partition_sweep\n"
        "algorithms = usc, urepsc\n"
        "n_values = 16\n"
        "k_values = 2\n"
        "rep_groups = 2\n"
        "p_in = 0.5\n"
        "p_out = 0.5\n"
        f"out = {tmp_path / 'err'}\n"
    )
    result = repsc.run_experiment(repsc.parse_config_text(text))
    by_algorithm = {row["algorithm"]: row for row in result.rows}
    assert by_algorithm["usc"]["error"] is None
    assert "NullSpaceTooSmall" in by_algorithm["urepsc"]["error"]
    assert result.error_count == 1
    # The error lands in the CSV error column, not in a crash.
    content = (tmp_path / "err" / "results.csv").read_text()
    assert "NullSpaceTooSmallError" in content


def test_fair_sc_baseline_single_group_is_unconstrained(toy_instance):
    rep, _, params = toy_instance
    for seed in range(5):
        g = repsc.sample_rpp(params, seed)
        baseline = repsc.fair_sc_baseline(g, rep, 2, groups=1)
        plain = repsc.usc(g, 2)
        assert same_partition(baseline.assignment, plain.assignment)
    with pytest.raises(ValueError):
        repsc.fair_sc_baseline(g, rep, 2, groups=0)


def test_fair_sc_baseline_recovers_block_constraint(toy_instance):
    _, _, params = toy_instance
    blocks, _ = repsc.sample_planted_partition_rep_graph(24, 2, 1.0, 0.0, 0)
    g = repsc.sample_rpp(params, 9)
    baseline = repsc.fair_sc_baseline(g, blocks, 2, groups=2)
    constrained = repsc.urepsc(g, blocks, 2)
    assert same_partition(baseline.assignment, constrained.assignment)


def test_plots_written_and_deterministic(tmp_path):
    def run(out_dir):
        cfg = repsc.parse_config_text(
            sweep_config(out_dir, extra="plots = true\n")
        )
        result = repsc.run_experiment(cfg)
        assert result.plot_paths
        return {p.name: p.read_text() for p in result.plot_paths}

    first = run(tmp_path / "p1")
    second = run(tmp_path / "p2")
    assert first == second
    for content in first.values():
        assert content.startswith("<svg")
        assert "polyline" in content


def test_line_chart_helper(tmp_path):
    path = tmp_path / "chart.svg"
    write_line_chart_svg(
        path, "demo", "x", "y", {"one": [(0.0, 1.0), (1.0, 3.0)], "two": [(0.0, 2.0)]}
    )
    content = path.read_text()
    assert content.startswith("<svg") and content.rstrip().endswith("</svg>")
    assert content.count("<polyline") == 2
    missing = tmp_path / "empty.svg"
    write_line_chart_svg(missing, "none", "x", "y", {"empty": []})
    assert not missing.exists()


MULTIPLEX_SAMPLE = "1 1 2 0.5\n1 2 3 1.5\n2 1 3 2.0\n2 3 4 1.0\n"


def test_cli_run_and_check(tmp_path):
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(sweep_config(tmp_path / "cli_out"))
    assert main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "cli_out" / "results.csv").exists()
    # Overrides replace the config values.
    assert main([
        "run", "--config", str(config_path), "--out", str(tmp_path / "other"),
        "--seed", "5",
    ]) == 0
    content = (tmp_path / "other" / "results.csv").read_text()
    assert ",5," in content  # seed column reflects the override
    check_path = tmp_path / "check.cfg"
    check_path.write_text(
        "mode = expected_case_check\nalgorithms = urepsc\nn_values = 24\n"
        f"k_values = 2\nd_values = 6\nout = {tmp_path / 'chk'}\n"
    )
    assert main(["check-expected", "--config", str(check_path)]) == 0


def test_cli_failure_exit_codes(tmp_path):
    failing = tmp_path / "failing.cfg"
    failing.write_text(
        "mode = planted_partition_sweep\nalgorithms = urepsc\nn_values = 16\n"
        "k_values = 2\nrep_groups = 2\np_in = 0.5\np_out = 0.5\n"
        f"out = {tmp_path / 'fail_out'}\n"
    )
    assert main(["run", "--config", str(failing)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = d_regular_sweep\nwibble = 3\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_ingest_with_names(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text(MULTIPLEX_SAMPLE)
    names = tmp_path / "names.txt"
    names.write_text("a\nb\nc\nd\n")
    out = tmp_path / "ingested"
    code = main([
        "ingest", "--multiplex", str(edges), "--rep-layers", "1..1",
        "--sim-layers", "2..2", "--knn", "2", "--out", str(out),
        "--names", str(names), "--index-base", "1",
    ])
    assert code == 0
    rep = repsc.read_graph(out / "representation.edges")
    sim = repsc.read_graph(out / "similarity.edges")
    assert rep.n == sim.n
    kept = (out / "kept_nodes.txt").read_text().splitlines()
    assert all("\t" in line for line in kept)
    assert len(kept) == rep.n


def test_cli_module_entry_point(tmp_path):
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(sweep_config(tmp_path / "module_out"))
    proc = subprocess.run(
        [sys.executable, "-m", "repsc.cli", "run", "--config", str(config_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "results.csv" in proc.stdout


def test_unexpected_exception_is_isolated_to_its_rows(tmp_path, monkeypatch):
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(sweep_config(tmp_path / "clean"))
    assert main(["run", "--config", str(config_path)]) == 0
    clean = (tmp_path / "clean" / "results.csv").read_text().splitlines()

    def broken(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(repsc.clustering, "urepsc", broken)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "broken")]) == 1
    lines = (tmp_path / "broken" / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    algorithm_col = header.index("algorithm")
    error_col = header.index("error")
    runtime_col = header.index("runtime_ms")
    assert len(lines) == len(clean) == 5
    for line, reference in zip(lines[1:], clean[1:]):
        cells, expected = line.split(","), reference.split(",")
        if cells[algorithm_col] == "urepsc":
            assert cells[error_col] == "RuntimeError: solver exploded"
        else:
            cells[runtime_col] = expected[runtime_col] = ""
            assert cells == expected


def synthetic_multiplex(seed: int, nodes: int = 30, layers: int = 6) -> str:
    """Two planted communities; every layer links nodes mostly inside them."""
    rng = np.random.default_rng(seed)
    community = np.arange(nodes) % 2
    lines = []
    for layer in range(1, layers + 1):
        for src in range(nodes):
            for dst in rng.choice(nodes, size=4, replace=False):
                if dst != src and (community[dst] == community[src] or rng.random() < 0.2):
                    lines.append(f"{layer} {src} {dst} {rng.integers(1, 10)}")
    return "\n".join(lines) + "\n"


def test_real_network_sweep_clusters_the_ingested_graphs(tmp_path):
    from repsc.experiments import _real_setup

    edges = tmp_path / "multiplex.edges"
    edges.write_text(synthetic_multiplex(3))
    # Node 30 only talks to itself: it must be dropped from both graphs.
    with edges.open("a") as handle:
        handle.write("1 30 30 1\n4 30 30 1\n")
    cfg = repsc.parse_config_text(
        "mode = real_network\n"
        "algorithms = usc, urepsc_approx, fair_sc_baseline\n"
        f"multiplex_file = {edges}\n"
        "rep_layers = 1..3\n"
        "sim_layers = 4..6\n"
        "knn_k = 3\n"
        "k_values = 2\n"
        "baseline_groups = 2\n"
        f"out = {tmp_path / 'sweep'}\n"
    )
    result = repsc.run_experiment(cfg)
    assert result.error_count == 0
    assert [row["algorithm"] for row in result.rows] == ["usc", "urepsc_approx", "fair_sc_baseline"]
    paths = repsc.experiments.ingest_to_dir(edges, (1, 3), (4, 6), 3, tmp_path / "ingested")
    sim, rep, kept = _real_setup(cfg)
    assert kept.tolist() == list(range(30))
    assert all(row["N"] == 30 for row in result.rows)
    assert np.array_equal(repsc.read_graph(paths["similarity"]).adjacency, sim.adjacency)
    assert np.array_equal(repsc.read_graph(paths["representation"]).adjacency, rep.adjacency)
    written = (tmp_path / "ingested" / "kept_nodes.txt").read_text().split()
    assert written == [str(i) for i in kept]
