"""Config parsing, sweep execution, output files, and the CLI."""

import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import repsc
from repsc.cli import main
from repsc.graphs import check_probabilities
from repsc.experiments import CSV_COLUMNS, parse_layer_range, write_line_chart_svg
from conftest import SWEEP_PROBS, clear_harness_caches, same_partition, traced_peak


# The results.csv cells computed from a row's partition.
PARTITION_COLUMNS = ("accuracy_nodes", "mistake_fraction", "rcut", "ncut", "avg_balance",
                     "min_balance", "max_representation_residual", "balance_over_rcut")


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
    for bad in ("x..y", "1..1_0", " \u0661..\u0663", "\uff12"):  # int() reads the last three
        with pytest.raises(repsc.ConfigError):
            parse_layer_range(bad)
    # In a config, range errors name their line like every other bad value.
    with pytest.raises(repsc.ConfigError, match="line 2: range '5..2' is empty"):
        repsc.parse_config_text("mode = real_network\nrep_layers = 5..2\n")


@pytest.mark.parametrize("key, value", [
    ("rep_layers", "1..1_0"), ("rep_layers", " \u0661..\u0663"), ("sim_layers", "\uff12"),
    ("n_values", "1_2"), ("n_values", "8, \u0661\u0662"), ("trials", "1_0"),
    ("knn_k", "\u0665"), ("base_seed", "+\u0660"),
])
def test_config_integers_are_ascii_decimals(key, value):
    # int() reads every one of these values; the config grammar does not.
    with pytest.raises(repsc.ConfigError, match="^line 2: "):
        repsc.parse_config_text(f"mode = real_network\n{key} = {value}\n")


@pytest.mark.parametrize("key, value", [
    ("epsilon", "0_5"), ("p", "0.\u0664"), ("kmeans_rel_tol", "\u0661e-9"), ("q", "0x1p-2"),
    ("p_in", " .5 .5"),
])
def test_config_floats_are_ascii_decimals(key, value):
    # float() reads the first three; the config grammar is the multiplex weights'.
    with pytest.raises(repsc.ConfigError, match=f"^line 2: bad value for '{key}'"):
        repsc.parse_config_text(f"mode = real_network\n{key} = {value}\n")


def test_config_floats_take_every_ascii_spelling():
    cfg = repsc.parse_config_text(
        "mode = d_regular_sweep\nalgorithms = usc\nn_values = 24\nk_values = 2\n"
        "d_values = 4\np = 1\nq = .5\nr = 2.5E-1\ns = -0e0\np_in = +1.\nepsilon = 3\n")
    assert (cfg.p, cfg.q, cfg.r, cfg.s, cfg.p_in, cfg.epsilon) == (1.0, 0.5, 0.25, 0.0, 1.0, 3.0)


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


@pytest.mark.parametrize("trials, threads, workers", [(1, 16, 2), (2, 16, 4), (10, 3, 3)])
def test_the_pool_forks_no_more_workers_than_chunks(tmp_path, monkeypatch, trials, threads,
                                                    workers):
    # A forked pool starts every worker it may have on the first task: a
    # sweep of 2 x trials rows gets at most one worker per chunk. An
    # in-process stand-in records the worker count and starts no process.
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(repsc.experiments, "ProcessPoolExecutor", InProcessPool)
    timing = CSV_COLUMNS.index("runtime_ms")

    def rows(count):
        out_dir = tmp_path / f"threads{count}"
        text = sweep_config(out_dir).replace("trials = 2", f"trials = {trials}")
        repsc.run_experiment(repsc.parse_config_text(text + f"threads = {count}\n"))
        return [line.split(",")[:timing] + line.split(",")[timing + 1:]
                for line in (out_dir / "results.csv").read_text().splitlines()]

    assert rows(threads) == rows(1)
    assert pools == [workers]


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


ALL_ALGORITHMS = ("usc", "urepsc_approx", "fair_sc_baseline")


# Every config field that reaches an algorithm: a pair of its values, and the
# algorithms whose rows it may change (the rows of the others must not move).
LIVE_FIELDS = {
    "kmeans_max_iters": ((1, 100), ALL_ALGORITHMS),
    "kmeans_restarts": ((1, 10), ALL_ALGORITHMS),
    "kmeans_rel_tol": ((0.5, 1e-9), ALL_ALGORITHMS),
    "baseline_groups": ((2, 8), ("fair_sc_baseline",)),
    "rank_values": ((2, 8), ("urepsc_approx",)),
    "rep_groups": ((2, 8), ALL_ALGORITHMS),  # R, and so G, change
    # The model: G's four probabilities, R's two, and the seed of both.
    "p": ((0.4, 0.9), ALL_ALGORITHMS),
    "q": ((0.3, 0.4), ALL_ALGORITHMS),
    "r": ((0.2, 0.3), ALL_ALGORITHMS),
    "s": ((0.1, 0.0), ALL_ALGORITHMS),
    "p_in": ((0.8, 0.3), ALL_ALGORITHMS),
    "p_out": ((0.2, 0.5), ALL_ALGORITHMS),
    "base_seed": ((0, 5), ALL_ALGORITHMS),
}

# Fields the planted-partition sweep reads without a cell of results.csv
# other than runtime_ms moving: the reason, and the pair of values
# test_inert_field_leaves_the_sweep_output_alone runs (None: checked elsewhere).
INERT_FIELDS = {
    "epsilon": ("read only by the d-regular misclustering bound shapes", (0.0, 0.5)),
    "threads": ("the worker count; criterion 10 checks that no CSV byte depends on it", None),
    "plots": ("writes SVG charts next to the CSVs and nothing else", ("false", "true")),
    "out": ("the directory the CSVs go to; no cell names it", ("a", "b")),
}


@pytest.mark.parametrize("name", LIVE_FIELDS)
def test_config_field_changes_the_sweep_output(tmp_path, name):
    # The partition's cells, not only kmeans_iters, differ between the two values.
    def run(value):
        rows = repsc.run_experiment(repsc.parse_config_text(
            "mode = planted_partition_sweep\n"
            f"algorithms = {', '.join(ALL_ALGORITHMS)}\n"
            "n_values = 40\n"
            "k_values = 4\n"
            "trials = 2\n"
            f"{name} = {value}\n"
            f"out = {tmp_path / str(value)}\n"
        )).rows
        assert not any(row["error"] for row in rows)
        max_iters = value if name == "kmeans_max_iters" else repsc.KMeansConfig.max_iters
        assert all(1 <= row["kmeans_iters"] <= max_iters for row in rows)
        return [(row["algorithm"], [row[column] for column in PARTITION_COLUMNS]) for row in rows]

    values, reaches = LIVE_FIELDS[name]
    first, second = map(run, values)
    moved = {algorithm for (algorithm, cells), (_, others) in zip(first, second) if cells != others}
    assert moved and moved <= set(reaches)


@pytest.mark.parametrize("name", [name for name, (_, pair) in INERT_FIELDS.items() if pair])
def test_inert_field_leaves_the_sweep_output_alone(tmp_path, name):
    def run(value):
        out = tmp_path / str(value)
        repsc.run_experiment(repsc.parse_config_text(
            "mode = planted_partition_sweep\n"
            f"algorithms = {', '.join(ALL_ALGORITHMS)}\n"
            "n_values = 40\n"
            "k_values = 4\n"
            "trials = 2\n"
            + ("" if name == "out" else f"{name} = {value}\n")
            + f"out = {out}\n"
        ))
        header, *rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()]
        timing = header.index("runtime_ms")
        return [row[:timing] + row[timing + 1:] for row in rows]

    assert not set(INERT_FIELDS) & set(LIVE_FIELDS)
    first, second = map(run, INERT_FIELDS[name][1])
    assert first == second


# The d-regular sweep's model fields: a pair of values, and the results.csv
# columns that must move between them (other than the field's own column and
# runtime_ms); nothing else may. epsilon enters only the bound shapes. The
# four probabilities enter the expected spectrum (gamma, and through it the
# bound shapes) and the sampled graphs, and so the partitions.
BOUND_COLUMNS = ("bound_shape_unnormalized", "bound_shape_normalized")
DREGULAR_LIVE_FIELDS = {
    "p": (0.4, 0.9),
    "q": (0.3, 0.35),
    "r": (0.2, 0.25),
    "s": (0.1, 0.0),
}
DREGULAR_INERT_FIELDS = {
    "epsilon": ((0.0, 0.5), "read only by the misclustering bound shapes"),
}


def d_regular_rows(out_dir, name, value):
    result = repsc.run_experiment(repsc.parse_config_text(
        sweep_config(out_dir, f"{name} = {value}\n").replace("usc, urepsc", "usc, urepsc, nrepsc")))
    assert result.error_count == 0
    return result.rows


@pytest.mark.parametrize("name", [*DREGULAR_LIVE_FIELDS, *DREGULAR_INERT_FIELDS])
def test_d_regular_field_moves_only_its_columns(tmp_path, name):
    live = name in DREGULAR_LIVE_FIELDS
    values = DREGULAR_LIVE_FIELDS[name] if live else DREGULAR_INERT_FIELDS[name][0]
    first, second = (d_regular_rows(tmp_path / str(v), name, v) for v in values)
    assert [row["algorithm"] for row in first] == [row["algorithm"] for row in second]
    moved = {column for a, b in zip(first, second) for column in CSV_COLUMNS
             if column not in (name, "runtime_ms") and a[column] != b[column]}
    if live:
        assert "gamma" in moved and moved & set(PARTITION_COLUMNS)
        assert moved <= {"gamma", *BOUND_COLUMNS, *PARTITION_COLUMNS, "kmeans_iters"}
    else:
        assert moved == set(BOUND_COLUMNS)


# The grid fields, which the d-regular sweep reads all three of: the
# results.csv column each one sets and a pair of its values.
GRID_FIELDS = {
    "n_values": ("N", (24, 48)),
    "k_values": ("K", (2, 3)),
    "d_values": ("d", (6, 12)),
}


@pytest.mark.parametrize("name", GRID_FIELDS)
def test_grid_field_changes_the_sweep_rows(tmp_path, name):
    # Each value's rows carry it, and a partition cell or gamma moves with it.
    column, values = GRID_FIELDS[name]

    def rows(value):
        grid = {"n_values": 48, "k_values": 2, "d_values": 6, name: value}
        result = repsc.run_experiment(repsc.parse_config_text(
            "mode = d_regular_sweep\n"
            "algorithms = usc, urepsc, nrepsc\n"
            "trials = 2\n"
            + "".join(f"{field} = {grid_value}\n" for field, grid_value in grid.items())
            + f"out = {tmp_path / str(value)}\n"))
        assert result.error_count == 0 and len(result.rows) == 6
        assert {row[column] for row in result.rows} == {value}
        return result.rows

    first, second = map(rows, values)
    assert any(a[cell] != b[cell] for a, b in zip(first, second)
               for cell in (*PARTITION_COLUMNS, "gamma"))


# The planted and d-regular configs of the liveness tests above, without
# their trial count.
TRIAL_CONFIGS = {
    "planted": ("mode = planted_partition_sweep\n"
                f"algorithms = {', '.join(ALL_ALGORITHMS)}\n"
                "n_values = 40\n"
                "k_values = 4\n"),
    "d_regular": ("mode = d_regular_sweep\n"
                  "algorithms = usc, urepsc, nrepsc\n"
                  "n_values = 24\n"
                  "k_values = 2\n"
                  "d_values = 6\n"),
}


@pytest.mark.parametrize("mode", TRIAL_CONFIGS)
def test_a_second_trial_adds_rows_and_leaves_trial_zero_alone(tmp_path, mode):
    # trials is live (it adds rows) and touches nothing else: the rows of
    # one trial are trial 0 of two, cell for cell outside runtime_ms.
    def rows(trials):
        out = tmp_path / str(trials)
        repsc.run_experiment(repsc.parse_config_text(
            TRIAL_CONFIGS[mode] + f"trials = {trials}\nout = {out}\n"))
        lines = (out / "results.csv").read_text().splitlines()
        header, *table = [line.split(",") for line in lines]
        timing, trial = header.index("runtime_ms"), header.index("trial")
        assert not any(row[header.index("error")] for row in table)
        return [(row[trial], row[:timing] + row[timing + 1:]) for row in table]

    one, two = rows(1), rows(2)
    assert [trial for trial, _ in two].count("1") == len(one) > 0
    assert [cells for _, cells in one] == [cells for trial, cells in two if trial == "0"]


# Every field that only real_network reads, other than the input file
# itself: a pair of settings over REAL_NETWORK_BASE that must change
# results.csv. The file counts nodes from 1, and node 31 has only
# self-weights, so it is isolated in both graphs.
REAL_NETWORK_BASE = {"rep_layers": "1..3", "sim_layers": "4..6", "knn_k": "3",
                     "index_base": "1"}
REAL_NETWORK_PAIRS = {
    "rep_layers": ({"rep_layers": "1..3"}, {"rep_layers": "1..2"}),
    "sim_layers": ({"sim_layers": "4..6"}, {"sim_layers": "5..6"}),
    "knn_k": ({"knn_k": "3"}, {"knn_k": "6"}),
    # Under index_base = 0 the absent node 0 is isolated, so with
    # drop_isolated the shift would leave the graphs as they are; without
    # it, the shift adds that node.
    "index_base": ({"index_base": "0", "drop_isolated": "false"},
                   {"index_base": "1", "drop_isolated": "false"}),
    "drop_isolated": ({"drop_isolated": "true"}, {"drop_isolated": "false"}),
}


@pytest.mark.parametrize("name", REAL_NETWORK_PAIRS)
def test_real_network_field_changes_the_sweep_output(tmp_path, name):
    edges = tmp_path / "multiplex.edges"
    lines = [line.split() for line in synthetic_multiplex(3).splitlines()]
    edges.write_text("".join(f"{layer} {int(src) + 1} {int(dst) + 1} {weight}\n"
                             for layer, src, dst, weight in lines) + "1 31 31 1\n4 31 31 1\n")

    def run(at, settings):
        rows = repsc.run_experiment(repsc.parse_config_text(
            "mode = real_network\n"
            f"algorithms = {', '.join(ALL_ALGORITHMS)}\n"
            f"multiplex_file = {edges}\n"
            "k_values = 2\n"
            "baseline_groups = 2\n"
            + "".join(f"{key} = {value}\n" for key, value in {**REAL_NETWORK_BASE,
                                                             **settings}.items())
            + f"out = {tmp_path / str(at)}\n"
        )).rows
        assert not any(row["error"] for row in rows)
        return [(row["algorithm"], [row[column] for column in ("N", *PARTITION_COLUMNS)])
                for row in rows]

    first, second = itertools.starmap(run, enumerate(REAL_NETWORK_PAIRS[name]))
    assert [algorithm for algorithm, _ in first] == [algorithm for algorithm, _ in second]
    assert first != second


# Each algorithm called directly on a trial's (G, R): rank N/10 for the
# approximate variants, and the configured group count for the baseline.
DIRECT_CALLS = {
    "usc": lambda g, rep, k, cfg: repsc.usc(g, k, cfg),
    "nsc": lambda g, rep, k, cfg: repsc.nsc(g, k, cfg),
    "urepsc": lambda g, rep, k, cfg: repsc.urepsc(g, rep, k, cfg),
    "nrepsc": lambda g, rep, k, cfg: repsc.nrepsc(g, rep, k, cfg),
    "urepsc_approx": lambda g, rep, k, cfg: repsc.urepsc_approx(g, rep, k, g.n // 10, cfg),
    "nrepsc_approx": lambda g, rep, k, cfg: repsc.nrepsc_approx(g, rep, k, g.n // 10, cfg),
    "fair_sc_baseline": lambda g, rep, k, cfg: repsc.fair_sc_baseline(g, rep, k, cfg, groups=3),
}


@pytest.mark.parametrize("algorithm", DIRECT_CALLS)
def test_a_sweep_row_scores_a_direct_call_of_its_algorithm(tmp_path, algorithm):
    cfg = repsc.parse_config_text(
        "mode = planted_partition_sweep\n"
        f"algorithms = {algorithm}\n"
        "n_values = 40\n"
        "k_values = 4\n"
        "trials = 2\n"
        "rep_groups = 5\n"
        "p_in = 1.0\n"  # R is 5 blocks of ones: the exact variants' null space has 36 dimensions
        "p_out = 0.0\n"
        "baseline_groups = 3\n"
        "base_seed = 5\n"
        f"out = {tmp_path}\n"
    )
    assert set(DIRECT_CALLS) == set(repsc.experiments.ALGORITHMS)
    rows = repsc.run_experiment(cfg).rows
    assert len(rows) == 2
    for row in rows:
        seed = row["seed"]
        rep, _ = repsc.sample_planted_partition_rep_graph(40, 5, 1.0, 0.0, [seed, 0])
        truth = repsc.contiguous_assignment(40, 4)
        params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
        graph = repsc.sample_rpp(params, [seed, 1])
        result = DIRECT_CALLS[algorithm](graph, rep, 4, cfg.kmeans_config(seed))
        score = repsc.score_partition(graph, rep, result.assignment, truth)
        assert row["error"] is None
        assert row["rank"] == (4 if algorithm.endswith("_approx") else None)
        assert row["kmeans_iters"] == result.kmeans_iters
        assert [row[column] for column in PARTITION_COLUMNS] == [
            score.accuracy, score.mistake_fraction, score.rcut, score.ncut, score.avg_balance,
            score.min_balance, score.max_representation_residual, score.balance_over_rcut]


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


def block_constraint_baseline(graph, rep, k, groups):
    """Reference formula for fair_sc_baseline: urepsc on the N x N block
    matrix in which everyone in a discovered group represents exactly that group."""
    labels = repsc.usc(rep, groups).assignment.labels
    block = (labels[:, None] == labels[None, :]).astype(np.float64)
    return repsc.urepsc(graph, repsc.Graph(block, allows_self_loops=True), k)


def test_fair_sc_baseline_equals_urepsc_on_the_block_matrix():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n, k, groups = 60, int(rng.integers(2, 5)), int(rng.integers(1, 7))
        rep, _ = repsc.sample_planted_partition_rep_graph(n, groups, 0.8, 0.2, [seed, 0])
        truth = repsc.contiguous_assignment(n, k)
        params = repsc.RppParams(assignment=truth, rep_graph=rep, p=0.6, q=0.5, r=0.3, s=0.2)
        g = repsc.sample_rpp(params, [seed, 1])
        baseline = repsc.fair_sc_baseline(g, rep, k, groups=groups)
        assert baseline.assignment.k == k  # groups sets the discovery's cluster count only
        assert same_partition(baseline.assignment,
                              block_constraint_baseline(g, rep, k, groups).assignment)


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


def test_cli_rejects_bad_ranges_and_thread_counts(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text(MULTIPLEX_SAMPLE)
    assert main([
        "ingest", "--multiplex", str(edges), "--rep-layers", "x..y",
        "--sim-layers", "2..2", "--out", str(tmp_path / "ingested"),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(sweep_config(tmp_path / "out"))
    assert main(["run", "--config", str(config_path), "--threads", "0"]) == 2
    assert "threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff12"])
@pytest.mark.parametrize("command, option", [
    ("run", "--threads"), ("run", "--seed"), ("check-expected", "--threads"),
    ("ingest", "--knn"), ("ingest", "--index-base"),
])
def test_cli_integer_options_are_ascii_decimals(tmp_path, capsys, command, option, value):
    # int() reads every one of these values; no input of the package does.
    if command == "ingest":
        args = ["ingest", "--multiplex", "edges.txt", "--rep-layers", "1..1",
                "--sim-layers", "2..2", "--out", str(tmp_path / "ingested")]
    else:
        args = [command, "--config", "sweep.cfg"]
    with pytest.raises(SystemExit) as exit_info:
        main([*args, option, value])
    assert exit_info.value.code == 2
    assert f"argument {option}: expected an ASCII decimal integer, got {value!r}" in \
        capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_rejects_knn_below_one(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text(MULTIPLEX_SAMPLE)
    assert main([
        "ingest", "--multiplex", str(edges), "--rep-layers", "1..1",
        "--sim-layers", "2..2", "--knn", "0", "--out", str(tmp_path / "ingested"),
    ]) == 2
    assert "error: knn_k must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "ingested").exists()
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(sweep_config(tmp_path / "out", "knn_k = 0\n"))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "error: knn_k must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_ingest_names_the_malformed_line(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("# layer_id src dst weight\n\n1 1 2 0.5\n2 1 3 x\n2 3 4 1.0\n")
    assert main([
        "ingest", "--multiplex", str(edges), "--rep-layers", "1..1",
        "--sim-layers", "2..2", "--out", str(tmp_path / "ingested"),
    ]) == 2
    assert "error: line 4: non-numeric field in '2 1 3 x'" in capsys.readouterr().err
    assert not (tmp_path / "ingested").exists()


@pytest.mark.parametrize("command", ["run", "check-expected", "ingest", "ingest --names"])
def test_cli_rejects_an_input_file_that_is_not_utf8(tmp_path, capsys, command):
    # Exit 1 means that some runs failed; undecodable input is bad input.
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"\xff\xfe")
    edges = tmp_path / "edges.txt"
    edges.write_text(MULTIPLEX_SAMPLE)
    ingest = ["ingest", "--multiplex", str(edges), "--rep-layers", "1..1",
              "--sim-layers", "2..2", "--out", str(tmp_path / "ingested")]
    args = {
        "run": ["run", "--config", str(undecodable)],
        "check-expected": ["check-expected", "--config", str(undecodable)],
        "ingest": ingest[:2] + [str(undecodable)] + ingest[3:],
        "ingest --names": ingest + ["--names", str(undecodable)],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "error: 'utf-8' codec can't decode byte 0xff" in err
    assert f"in file {undecodable}\n" in err
    assert not (tmp_path / "ingested").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("kmeans_restarts = 0\n", "kmeans_restarts must be at least 1"),
        ("kmeans_max_iters = 0\n", "kmeans_max_iters must be at least 1"),
        ("kmeans_rel_tol = 0\n", "kmeans_rel_tol must be positive"),
        ("epsilon = -1\n", "epsilon must be non-negative"),
        ("q = 0.5\n", "need 1 >= p >= q >= r >= s >= 0"),
        ("p = 1.5\n", "need 1 >= p >= q >= r >= s >= 0"),
        ("s = -0.1\n", "need 1 >= p >= q >= r >= s >= 0"),
        ("r = nan\n", "need 1 >= p >= q >= r >= s >= 0"),
        ("p_in = 1.5\n", "need p_in, p_out in [0, 1]"),
        ("p_out = -0.2\n", "need p_in, p_out in [0, 1]"),
        ("rank_values = 2, 0\n", "rank_values must be at least 1"),
        ("rep_groups = 0\n", "rep_groups must be at least 1"),
        ("baseline_groups = 0\n", "baseline_groups must be at least 1"),
        ("base_seed = -1\n", "base_seed must be non-negative"),
        ("n_values = 24, 0\n", "n_values must be at least 1"),
        ("k_values = 0\n", "k_values must be at least 1"),
        ("d_values = 0\n", "d_values must be at least 1"),
    ],
)
def test_cli_rejects_values_that_every_run_rejects(tmp_path, capsys, extra, message):
    # A key of ``extra`` that sweep_config already sets replaces its line.
    key = extra.partition("=")[0]
    base = "".join(line for line in sweep_config(tmp_path / "out").splitlines(keepends=True)
                   if not line.startswith(key))
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(base + extra)
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_negative_seed_override(tmp_path, capsys):
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(sweep_config(tmp_path / "out"))
    assert main(["run", "--config", str(config_path), "--seed", "-1"]) == 2
    assert "error: base_seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kmeans_defaults_come_from_kmeans_config():
    cfg = repsc.ExperimentConfig(mode="d_regular_sweep", algorithms=("usc",), n_values=(24,),
                                 k_values=(2,), d_values=(6,))
    for seed in (0, 7):
        assert cfg.kmeans_config(seed) == repsc.KMeansConfig(seed=seed)


def test_one_probability_rule_for_model_sampler_and_config(toy_instance):
    rep, truth, _ = toy_instance
    check_probabilities(ordered=True, p=1.0, q=0.5, r=0.5, s=0.0)
    check_probabilities(p_in=0.0, p_out=1.0)
    for bad in (dict(p=0.3, q=0.4, r=0.2, s=0.1), dict(p=0.4, q=0.3, r=0.2, s=float("nan"))):
        with pytest.raises(ValueError, match="need 1 >= p >= q >= r >= s >= 0"):
            check_probabilities(ordered=True, **bad)
        with pytest.raises(ValueError, match="need 1 >= p >= q >= r >= s >= 0"):
            repsc.RppParams(assignment=truth, rep_graph=rep, **bad)
        with pytest.raises(repsc.ConfigError, match="need 1 >= p >= q >= r >= s >= 0"):
            repsc.ExperimentConfig(mode="planted_partition_sweep", algorithms=("usc",),
                                   n_values=(8,), k_values=(2,), **bad)
    for p_in, p_out in ((1.5, 0.2), (0.8, float("inf"))):
        with pytest.raises(ValueError, match=r"need p_in, p_out in \[0, 1\]"):
            repsc.sample_planted_partition_rep_graph(8, 2, p_in, p_out, 0)
        with pytest.raises(repsc.ConfigError, match=r"need p_in, p_out in \[0, 1\]"):
            repsc.ExperimentConfig(mode="planted_partition_sweep", algorithms=("usc",),
                                   n_values=(8,), k_values=(2,), p_in=p_in, p_out=p_out)


def test_value_error_in_grid_setup_lands_in_the_rows(tmp_path, monkeypatch):
    # A ValueError in the setup is a bug, not a missing bound: every row of
    # the grid point records it instead of leaving gamma silently empty.
    def broken(*args, **kwargs):
        raise ValueError("setup exploded")

    monkeypatch.setattr(repsc.experiments, "expected_spectrum", broken)
    result = repsc.run_experiment(repsc.parse_config_text(sweep_config(tmp_path / "out")))
    assert [row["error"] for row in result.rows] == ["ValueError: setup exploded"] * 4


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
    # The child imports the repsc this test imported, installed or not.
    path = [str(Path(repsc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "repsc.cli", "run", "--config", str(config_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
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

    monkeypatch.setitem(repsc.experiments.ALGORITHMS, "urepsc", broken)
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


# -- what the rows of a sweep share --


def decomposed(solves) -> list[np.ndarray]:
    """Every matrix among ``solves`` that a select solve (all eigenvalues,
    some eigenvectors: R's solve for a rank) ran on, in call order."""
    return [solve.matrix for solve in solves if solve.kind == "select"]


def test_each_trial_samples_its_graph_once(tmp_path, monkeypatch):
    seeds = []

    def counting(params, seed):
        seeds.append(seed)
        return repsc.sample_rpp(params, seed)

    monkeypatch.setattr(repsc.experiments, "sample_rpp", counting)
    result = repsc.run_experiment(repsc.parse_config_text(sweep_config(tmp_path)))
    assert result.error_count == 0 and len(result.rows) == 4
    assert seeds == [0, 1]


def test_real_network_sweep_decomposes_the_shared_r_once(tmp_path, eigensolves):
    edges = tmp_path / "multiplex.edges"
    edges.write_text(synthetic_multiplex(5))
    cfg = repsc.parse_config_text(
        "mode = real_network\n"
        "algorithms = urepsc_approx, fair_sc_baseline\n"
        f"multiplex_file = {edges}\n"
        "rep_layers = 1..3\n"
        "sim_layers = 4..6\n"
        "knn_k = 3\n"
        "k_values = 2\n"
        "trials = 2\n"
        "baseline_groups = 2\n"
        f"out = {tmp_path / 'sweep'}\n"
    )
    result = repsc.run_experiment(cfg)
    assert result.error_count == 0 and len(result.rows) == 4
    _, rep, _ = repsc.experiments._real_setup(cfg)
    # The shared R once; the fair_sc_baseline rows decompose nothing.
    assert sum(m is rep.adjacency for m in decomposed(eigensolves)) == 1
    assert len(decomposed(eigensolves)) == 1


def test_real_network_sweep_solves_each_problem_once(tmp_path, monkeypatch, eigensolves):
    # Trials differ only in the k-means seed, so every row of a k shares its
    # restricted eigensolves, and every row shares one group discovery
    # eigensolve; k-means runs for every row, and the discovery's once per
    # trial (its seed).
    ks, trials, groups = (2, 4), 2, 3
    discoveries, kmeans_ks = [], []

    def counting_usc(graph, k, cfg):
        discoveries.append(cfg.seed)
        return repsc.usc(graph, k, cfg)

    def counting_kmeans(points, k, cfg):
        kmeans_ks.append(k)
        return repsc.kmeans(points, k, cfg)

    monkeypatch.setattr(repsc.experiments, "usc", counting_usc)
    monkeypatch.setattr(repsc.clustering, "kmeans", counting_kmeans)
    edges = tmp_path / "multiplex.edges"
    edges.write_text(synthetic_multiplex(5))
    cfg = repsc.parse_config_text(
        "mode = real_network\n"
        "algorithms = urepsc_approx, nrepsc_approx, fair_sc_baseline\n"
        f"multiplex_file = {edges}\n"
        "rep_layers = 1..3\n"
        "sim_layers = 4..6\n"
        "knn_k = 3\n"
        f"k_values = {', '.join(map(str, ks))}\n"
        f"trials = {trials}\n"
        f"baseline_groups = {groups}\n"
        f"out = {tmp_path / 'sweep'}\n"
    )
    result = repsc.run_experiment(cfg)
    assert result.error_count == 0 and len(result.rows) == 3 * len(ks) * trials
    # R once, the two approximate problems once per k, the discovery once,
    # and the baseline's group-constrained problem once per row.
    counts = [solve.count for solve in eigensolves]
    assert counts.count(None) == 1
    assert counts.count(groups + 1) == 1
    assert len(counts) == 1 + 2 * len(ks) + 1 + len(ks) * trials
    assert discoveries == list(range(trials))
    assert kmeans_ks.count(groups) == trials
    assert len(kmeans_ks) == 3 * len(ks) * trials + trials


def test_planted_sweep_decomposes_each_trials_r_once(tmp_path, eigensolves):
    cfg = repsc.parse_config_text(
        "mode = planted_partition_sweep\n"
        "algorithms = urepsc_approx, nrepsc_approx\n"
        "n_values = 40\n"
        "k_values = 2\n"
        "trials = 2\n"
        f"out = {tmp_path}\n"
    )
    result = repsc.run_experiment(cfg)
    assert result.error_count == 0 and len(result.rows) == 4
    assert [m.shape for m in decomposed(eigensolves)] == [(40, 40), (40, 40)]


def test_planted_sweep_takes_no_svd(tmp_path, monkeypatch):
    # Every constraint basis is eigenvectors of R or written down: no row may
    # reach an SVD, a null_space or a QR.
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called a second factorization")

    for module, name in ((scipy.linalg, "null_space"), (scipy.linalg, "svd"),
                         (scipy.linalg, "qr"), (np.linalg, "svd"), (np.linalg, "qr")):
        monkeypatch.setattr(module, name, refuse)
    cfg = repsc.parse_config_text(
        "mode = planted_partition_sweep\n"
        "algorithms = urepsc_approx, nrepsc_approx, fair_sc_baseline\n"
        "n_values = 40\n"
        "k_values = 2\n"
        "trials = 2\n"
        f"out = {tmp_path}\n"
    )
    result = repsc.run_experiment(cfg)
    assert len(result.rows) == 6
    assert [row["error"] for row in result.rows if row["error"]] == []


def test_one_entry_cache_holds_nothing_while_it_builds():
    class Value:
        pass

    built = []  # weak references to every value built
    alive_at_build = []

    def build(key):
        alive_at_build.append(sum(ref() is not None for ref in built))
        if key == "bad":
            raise ValueError("bad key")
        value = Value()
        built.append(weakref.ref(value))
        return value

    cached = repsc.experiments._one_entry_cache(build)
    first = cached("a")
    assert cached("a") is first and len(built) == 1
    del first
    cached("b")
    with pytest.raises(ValueError):
        cached("bad")
    # "a" was freed before "b" was built, and "b" before the failed build;
    # the failure left nothing in the cache.
    assert alive_at_build == [0, 0, 0]
    assert all(ref() is None for ref in built)
    cached("b")
    assert len(built) == 3
    cached.cache_clear()
    assert built[-1]() is None


def kept_arrays(value):
    """Every array in a memo entry: arrays, tuples of them, assignments."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from kept_arrays(item)
    elif isinstance(value, repsc.ClusterAssignment):
        yield value.labels


def test_every_array_a_graph_keeps_owns_its_bytes(tmp_path):
    # After a sweep's rows, R's null block and the k-means points and
    # spectra on G are whole arrays, not slices of a solve's larger output
    # that would keep it alive as long as the Graph.
    cfg = repsc.parse_config_text(
        "mode = d_regular_sweep\n"
        "algorithms = usc, nsc, urepsc, nrepsc\n"
        "n_values = 120\n"
        "k_values = 3\n"
        "d_values = 18\n"
        "trials = 1\n"
        f"out = {tmp_path}\n"
    )
    assert repsc.run_experiment(cfg).error_count == 0
    # The trial's inputs are still in the harness cache: this is a hit.
    graph, rep, _, _ = repsc.experiments._trial_inputs(cfg, 120, 3, 18, cfg.base_seed)
    assert rep._memo[("picked", None)][1] and sum(key[0] == "points" for key in graph._memo) == 4
    kept = [array for memo in (graph._memo, rep._memo) for value in memo.values()
            for array in kept_arrays(value)]
    assert len(kept) >= 9
    for array in kept:
        assert array.base is None or array.base.nbytes == array.nbytes


# The benchmark's d-regular and planted configs at N = 600, one trial.
BUDGET_CONFIGS = {
    "d_regular": "mode = d_regular_sweep\n"
                 "algorithms = usc, nsc, urepsc, nrepsc\n"
                 "d_values = 40\n"
                 "p = 0.4\nq = 0.3\nr = 0.2\ns = 0.1\n",
    "planted": "mode = planted_partition_sweep\n"
               "algorithms = usc, urepsc_approx, nrepsc_approx, fair_sc_baseline\n",
}


@pytest.mark.parametrize("mode, budget", [
    # The bool R and G (1/8 each) and one N x N matrix with its solve's
    # thin blocks: usc's and nsc's Laplacian, or before G is drawn R's
    # float copy, tridiagonalized in place for its null block. Reads 1.46;
    # R's interval solve with an N-column eigenvector buffer read 2.27,
    # float64 R and G 3.21, and a null block that pinned the buffer 4.18.
    ("d_regular", 1.75),
    # The bool R and G (1/8 each) and R's select solve: its float copy of
    # R, holding the reflectors, and N x r blocks of eigenvectors. Reads
    # 2.09; float64 R and G read 3.84, and R's full decomposition (its copy
    # of R and 2 N x N of workspace) 5.03.
    ("planted", 2.5),
])
def test_a_whole_sweep_holds_its_dense_floor(tmp_path, mode, budget):
    n = 600
    cfg = repsc.parse_config_text(BUDGET_CONFIGS[mode] + f"n_values = {n}\nk_values = 5\n"
                                  f"trials = 1\nout = {tmp_path}\n")

    def sweep():
        try:
            assert repsc.run_experiment(cfg).error_count == 0
        finally:
            clear_harness_caches()

    assert traced_peak(sweep) <= budget * n * n * 8
