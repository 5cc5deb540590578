"""Acceptance gate: the ten shipping criteria, one test each.

Every test prints a single ``[criterion NN] PASS`` line on success (visible
with ``pytest -s`` or in verbose failure reports); a failing criterion fails
its test. Criteria 4, 5 and 10 share one module-scoped benchmark sweep.

The mean-accuracy goldens below were calibrated once against this
implementation's own Monte-Carlo (10 seeded trials per grid point,
base seed 0) and then frozen; reruns must stay within +/- 0.03.
"""

import itertools
import time

import numpy as np
import pytest

import repsc
from repsc.experiments import CSV_COLUMNS

from conftest import (
    REGULAR_INSTANCES,
    SWEEP_PROBS,
    brute_force_mistake,
    canonical_y_vectors,
    random_assignment,
    same_partition,
)

# Frozen golden mean accuracies for the benchmark sweep (criterion 4).
GOLDEN_MEAN_ACCURACY = {
    ("urepsc", 600, 5): 1.0,
    ("urepsc", 900, 5): 1.0,
    ("urepsc", 1200, 5): 1.0,
    ("urepsc", 1200, 10): 1.0,
    ("usc", 600, 5): 0.2397,
    ("usc", 900, 5): 0.2481,
    ("usc", 1200, 5): 0.3324,
    ("usc", 1200, 10): 0.1276,
}
GOLDEN_TOLERANCE = 0.03

SWEEP_A = (
    "mode = d_regular_sweep\n"
    "algorithms = usc, urepsc\n"
    "n_values = 600, 900, 1200\n"
    "k_values = 5\n"
    "d_values = 40\n"
    "trials = 10\n"
)
SWEEP_B = (
    "mode = d_regular_sweep\n"
    "algorithms = usc, urepsc\n"
    "n_values = 1200\n"
    "k_values = 5, 10\n"
    "d_values = 40\n"
    "trials = 10\n"
)


def run_sweep(text, out_dir, threads=1):
    cfg = repsc.parse_config_text(text + f"out = {out_dir}\nthreads = {threads}\n")
    return repsc.run_experiment(cfg)


@pytest.fixture(scope="module")
def benchmark_sweep(tmp_path_factory):
    base = tmp_path_factory.mktemp("benchmark")
    start = time.perf_counter()
    result_a = run_sweep(SWEEP_A, base / "a")
    result_b = run_sweep(SWEEP_B, base / "b")
    duration = time.perf_counter() - start
    assert result_a.error_count == 0 and result_b.error_count == 0
    return {
        "rows": result_a.rows + result_b.rows,
        "duration": duration,
        "base": base,
        "paths": {"a": result_a.results_path, "b": result_b.results_path},
    }


def mean_by_point(rows, metric):
    grouped = {}
    for row in rows:
        key = (row["algorithm"], row["N"], row["K"])
        grouped.setdefault(key, []).append(float(row[metric]))
    return {key: float(np.mean(values)) for key, values in grouped.items()}


def test_criterion_01_expected_case_exactness():
    start = time.perf_counter()
    assert len(REGULAR_INSTANCES) == 12
    assert {n for n, _, _ in REGULAR_INSTANCES} == {60, 120, 240}
    assert {k for _, k, _ in REGULAR_INSTANCES} == {2, 3, 4}
    for n, k, d in REGULAR_INSTANCES:
        assert d in (2 * k, 6 * k)
        params, expected = repsc.expected_case_inputs(n, k, d, **SWEEP_PROBS)
        rep = params.rep_graph
        truth = params.assignment
        for algorithm in (repsc.urepsc, repsc.nrepsc):
            result = algorithm(expected, rep, k)
            mistakes = repsc.mistake_fraction(truth, result.assignment)
            assert mistakes == 0.0, (
                f"{algorithm.__name__} N={n} K={k} d={d}: mistake {mistakes}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"expected-case exactness took {elapsed:.1f}s (budget 30s)"
    print(f"[criterion 01] PASS - exact recovery on all 12 expected-case "
          f"instances in {elapsed:.1f}s")


def test_criterion_02_closed_form_spectrum():
    start = time.perf_counter()
    configurations = list(REGULAR_INSTANCES) + [(1200, 5, 40)]
    for n, k, d in configurations:
        params, expected = repsc.expected_case_inputs(n, k, d, **SWEEP_PROBS)
        lambda1, lambda_rest = repsc.closed_form_eigenvalues(params)
        raw = expected + params.p * np.eye(n)
        # Path one: the top of the dense spectrum matches the formula.
        top = float(np.linalg.eigvalsh(raw)[-1])
        assert abs(top - lambda1) <= 1e-7 * abs(lambda1)
        # Path two: every cluster-contrast vector is an eigenvector at the
        # (k-1)-fold eigenvalue.
        basis = canonical_y_vectors(n, k)
        for j in range(1, k):
            contrast = basis[:, j]
            rayleigh = float(contrast @ raw @ contrast)
            assert abs(rayleigh - lambda_rest) <= 1e-7 * abs(lambda_rest)
            residual = np.linalg.norm(raw @ contrast - rayleigh * contrast)
            assert residual <= 1e-7 * (1.0 + abs(lambda1))
    reference = repsc.closed_form_eigenvalues(
        repsc.expected_case_inputs(1200, 5, 40, **SWEEP_PROBS)[0]
    )
    assert reference == pytest.approx((152.0, 24.0), rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"spectrum check took {elapsed:.1f}s (budget 60s)"
    print(f"[criterion 02] PASS - closed-form spectrum matches dense "
          f"eigensolves (lambda1=152.0, lambda_rest=24.0 at the reference "
          f"configuration) in {elapsed:.1f}s")


def test_criterion_03_linear_condition_implies_zero_residual():
    rng = np.random.default_rng(1003)
    premise_hits = 0
    counterexamples = 0
    setups = [(n, k, d, *repsc.build_d_regular_rep_graph(n, k, d))
              for n, k, d in REGULAR_INSTANCES]
    for trial in range(200):
        n, k, d, rep, truth = setups[trial % len(setups)]
        perm = rng.permutation(n)
        shuffled_rep = repsc.Graph(
            rep.adjacency[np.ix_(perm, perm)], allows_self_loops=True
        )
        if trial % 2 == 0:
            assignment = repsc.ClusterAssignment(truth.labels[perm], k)
        else:
            assignment = random_assignment(rng, n, k)
        indicator = repsc.build_indicator_h(assignment)
        condition = repsc.linear_constraint_norm(indicator, shuffled_rep)
        if condition <= 1e-9:
            premise_hits += 1
            residual = repsc.representation_residual(shuffled_rep, assignment)
            if float(np.abs(residual).max()) > 1e-9:
                counterexamples += 1
    assert premise_hits >= 50, f"only {premise_hits} pairs satisfied the premise"
    assert counterexamples == 0
    print(f"[criterion 03] PASS - 200 pairs, {premise_hits} with the linear "
          f"condition satisfied, zero residual counterexamples")


def test_criterion_04_benchmark_trends_and_goldens(benchmark_sweep):
    means = mean_by_point(benchmark_sweep["rows"], "accuracy_nodes")
    for key, golden in GOLDEN_MEAN_ACCURACY.items():
        observed = means[key]
        assert abs(observed - golden) <= GOLDEN_TOLERANCE, (
            f"{key}: mean accuracy {observed:.4f} drifted from frozen "
            f"golden {golden:.4f}"
        )
    by_n = [means[("urepsc", n, 5)] for n in (600, 900, 1200)]
    assert by_n[-1] >= 0.95
    assert by_n[0] <= by_n[1] + 1e-9 and by_n[1] <= by_n[2] + 1e-9
    assert means[("urepsc", 1200, 10)] > means[("usc", 1200, 10)]
    duration = benchmark_sweep["duration"]
    assert duration < 1200.0, f"sweep took {duration:.0f}s (budget 20 min)"
    print(f"[criterion 04] PASS - constrained accuracy {by_n} over N, "
          f"{means[('urepsc', 1200, 10)]:.3f} vs {means[('usc', 1200, 10)]:.3f} "
          f"at K=10, sweep in {duration:.0f}s")


def test_criterion_05_residual_dominance(benchmark_sweep):
    means = mean_by_point(benchmark_sweep["rows"], "max_representation_residual")
    points = sorted({(n, k) for _, n, k in means})
    dominated = sum(
        means[("urepsc", n, k)] <= means[("usc", n, k)] + 1e-12 for n, k in points
    )
    fraction = dominated / len(points)
    assert fraction >= 0.9, f"dominance on {dominated}/{len(points)} grid points"
    print(f"[criterion 05] PASS - constrained residual no worse on "
          f"{dominated}/{len(points)} grid points")


def test_criterion_06_mistake_oracle_vs_brute_force():
    rng = np.random.default_rng(1006)
    for trial in range(500):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 31))
        truth = random_assignment(rng, n, k)
        predicted = random_assignment(rng, n, k)
        fast = repsc.mistake_fraction(truth, predicted)
        slow = brute_force_mistake(truth, predicted)
        assert fast == slow, (n, k, truth.labels.tolist(), predicted.labels.tolist())
    print("[criterion 06] PASS - matching-based mistake fraction equals "
          "brute-force enumeration on 500 pairs")


def test_criterion_07_cut_dual_forms():
    rng = np.random.default_rng(1007)
    checked_ncut = 0
    for trial in range(100):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(2, min(6, n)))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8), k=1)
        graph = repsc.Graph((upper | upper.T).astype(np.float64))
        assignment = random_assignment(rng, n, k)
        crossing = np.zeros(k)
        for i, j in itertools.combinations(range(n), 2):
            if graph.adjacency[i, j] and assignment.labels[i] != assignment.labels[j]:
                crossing[assignment.labels[i]] += 1
                crossing[assignment.labels[j]] += 1
        laplacian = np.diag(graph.degrees) - graph.adjacency
        h = repsc.build_indicator_h(assignment)
        trace_rcut = float(np.trace(h.T @ laplacian @ h))
        combinatorial_rcut = float(np.sum(crossing / assignment.sizes))
        assert abs(combinatorial_rcut - trace_rcut) <= 1e-9 * (1 + abs(combinatorial_rcut))
        assert repsc.ratio_cut(graph, assignment) == pytest.approx(
            combinatorial_rcut, abs=1e-9
        )
        volumes = graph.degrees @ assignment.onehot()
        if np.all(volumes > 0):
            checked_ncut += 1
            t = repsc.build_indicator_t(assignment, graph.degrees)
            trace_ncut = float(np.trace(t.T @ laplacian @ t))
            combinatorial_ncut = float(np.sum(crossing / volumes))
            assert abs(combinatorial_ncut - trace_ncut) <= 1e-9 * (1 + abs(combinatorial_ncut))
            assert repsc.normalized_cut(graph, assignment) == pytest.approx(
                combinatorial_ncut, abs=1e-9
            )
    assert checked_ncut >= 50
    print(f"[criterion 07] PASS - combinatorial and trace cut forms agree on "
          f"100 random graphs ({checked_ncut} with positive volumes)")


def test_criterion_08_approx_lossless_at_true_rank():
    for seed in range(20):
        groups = 2 + seed % 4
        n = 10 * groups
        cliques, _ = repsc.sample_planted_partition_rep_graph(n, groups, 1.0, 0.0, seed)
        assert np.linalg.matrix_rank(cliques.adjacency) == groups
        sampled, _ = repsc.sample_planted_partition_rep_graph(n, 2, 0.7, 0.25, seed)
        # A Graph's adjacency is bool: float arithmetic takes a float copy.
        weights = sampled.adjacency.astype(float)
        graph = repsc.Graph(weights - np.diag(np.diag(weights)))
        exact = repsc.urepsc(graph, cliques, 2)
        approx = repsc.urepsc_approx(graph, cliques, 2, rank=groups)
        assert same_partition(exact.assignment, approx.assignment), f"seed {seed}"
    print("[criterion 08] PASS - rank-exact approximation reproduces the "
          "exact partition on 20 instances")


def test_criterion_09_group_fairness_reduction():
    rng = np.random.default_rng(1009)
    combos = [(2, 2, 2), (3, 2, 3), (4, 3, 2), (5, 4, 2), (2, 3, 4)]
    satisfying = violating = 0
    for index in range(25):
        groups, k, mult = combos[index % len(combos)]
        group_size = k * mult
        n = groups * group_size
        cliques, membership = repsc.sample_planted_partition_rep_graph(
            n, groups, 1.0, 0.0, 0
        )
        # Proportional: each group contributes group_size/k nodes per cluster.
        labels = np.zeros(n, dtype=np.int64)
        for g in range(groups):
            block = np.repeat(np.arange(k), mult)
            labels[g * group_size:(g + 1) * group_size] = block
        perm = rng.permutation(n)
        shuffled = repsc.Graph(
            cliques.adjacency[np.ix_(perm, perm)], allows_self_loops=True
        )
        fair = repsc.ClusterAssignment(labels[perm], k)
        residual = repsc.representation_residual(shuffled, fair)
        assert float(np.abs(residual).max()) <= 1e-12
        satisfying += 1
        # Violating: move one node to another cluster.
        broken_labels = fair.labels.copy()
        node = int(rng.integers(n))
        broken_labels[node] = (broken_labels[node] + 1) % k
        broken = repsc.ClusterAssignment(broken_labels, k)
        residual = repsc.representation_residual(shuffled, broken)
        assert float(np.abs(residual).max()) > 1e-6
        violating += 1
    assert satisfying == 25 and violating == 25
    print("[criterion 09] PASS - residual is zero on 25 proportional "
          "assignments and positive on 25 perturbed ones")


def test_criterion_10_sweep_determinism(benchmark_sweep):
    runtime_col = CSV_COLUMNS.index("runtime_ms")

    def stripped(path):
        lines = path.read_text().splitlines()
        body = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[runtime_col] = ""
            body.append(",".join(cells))
        return [lines[0]] + body

    base = benchmark_sweep["base"]
    rerun_a = run_sweep(SWEEP_A, base / "rerun_a", threads=2)
    rerun_b = run_sweep(SWEEP_B, base / "rerun_b", threads=2)
    assert stripped(benchmark_sweep["paths"]["a"]) == stripped(rerun_a.results_path)
    assert stripped(benchmark_sweep["paths"]["b"]) == stripped(rerun_b.results_path)
    print("[criterion 10] PASS - rerun CSVs byte-identical outside the "
          "runtime column, including across worker counts")
