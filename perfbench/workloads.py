"""The benchmark's workloads, metric names and output checks.

Every workload is one ``repsc run`` config. The benchmark's seed becomes the
run's ``--seed`` and seeds the generated multiplex file; nothing else varies.
Sizes are chosen so that a run of the slowest workload stays well inside the
time a run may take on a 2-core machine (see README.md).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

_DREGULAR = """\
mode = d_regular_sweep
algorithms = usc, nsc, urepsc, nrepsc
n_values = 600, 900
k_values = 5
d_values = 40
p = 0.4
q = 0.3
r = 0.2
s = 0.1
trials = 1
"""

_PLANTED = """\
mode = planted_partition_sweep
algorithms = usc, urepsc_approx, nrepsc_approx, fair_sc_baseline
n_values = 600
k_values = 5
trials = 4
threads = 1
"""

_MULTIPLEX = """\
mode = real_network
algorithms = urepsc_approx, nrepsc_approx, fair_sc_baseline
multiplex_file = {multiplex_file}
rep_layers = {rep_range}
sim_layers = {sim_range}
knn_k = 5
k_values = 5, 10
trials = 2
threads = 1
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    rows: int
    workers: int = 1
    # urepsc/nrepsc must recover the planted partition exactly.
    exact_recovery: bool = False
    # The config must reproduce a one-worker run of itself row for row.
    one_worker_reference: bool = False
    multiplex: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dregular_sweep", _DREGULAR + "threads = 1\n", rows=8, exact_recovery=True),
        Workload("dregular_sweep_2w", _DREGULAR + "threads = 2\n", rows=8, workers=2,
                 exact_recovery=True, one_worker_reference=True),
        Workload("planted_approx", _PLANTED, rows=16),
        Workload("multiplex_real", _MULTIPLEX, rows=12, multiplex=True),
    )
}

# Runnable, but not listed in BENCHMARK.json: with two workers the sweep's
# wall time is not steady at the seed commit (see README.md).
UNLISTED = ("dregular_sweep_2w",)

END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "balance_mean": "ratio",
    "rcut_mean": "1",
}
# Reported in the summary lines but not as metrics: failed_frac is 0 on a
# healthy run (failures are the result's ``failed``/``attempted``), and
# accuracy_mean has no planted truth to compare with on multiplex_real.
SUMMARY_ONLY = {"accuracy_mean": "ratio", "failed_frac": "ratio"}

_ALGORITHMS = ("usc", "nsc", "urepsc", "nrepsc", "urepsc_approx", "nrepsc_approx")
# name -> (unit, better). Which end-to-end metric each should move, and on
# which workload, is tabulated in README.md.
PER_LAYER = {
    "linalg.null_space_basis.busy_s": ("s", "lower"),
    "linalg.null_space_basis.kept_frac": ("ratio", "higher"),
    "linalg.sym_eig.busy_s": ("s", "lower"),
    "linalg.sym_eig.calls": ("count", "lower"),
    "linalg.sym_eig.dim3_sum": ("count", "lower"),
    "linalg.low_rank_approx.busy_s": ("s", "lower"),
    "linalg.sqrt_and_inv_sqrt.busy_s": ("s", "lower"),
    "linalg.self_s": ("s", "lower"),
    "clustering.constraint_null_basis.busy_s": ("s", "lower"),
    "clustering.constraint_null_basis.calls": ("count", "lower"),
    "clustering.constraint_null_basis.distinct_frac": ("ratio", "higher"),
    "clustering.kmeans.busy_s": ("s", "lower"),
    "clustering.kmeans.calls": ("count", "lower"),
    **{f"clustering.{a}.call_ms_p50": ("ms", "lower") for a in _ALGORITHMS},
    **{f"clustering.{a}.calls": ("count", "lower") for a in _ALGORITHMS},
    "clustering.self_s": ("s", "lower"),
    "theory.expected_spectrum.busy_s": ("s", "lower"),
    "theory.expected_spectrum.calls": ("count", "lower"),
    "theory.misclustering_bound_shape.busy_s": ("s", "lower"),
    "theory.self_s": ("s", "lower"),
    "graphs.sample_rpp.busy_s": ("s", "lower"),
    "graphs.sample_planted_partition_rep_graph.busy_s": ("s", "lower"),
    "graphs.build_d_regular_rep_graph.busy_s": ("s", "lower"),
    "graphs.self_s": ("s", "lower"),
    "metrics.score_partition.busy_s": ("s", "lower"),
    "metrics.ratio_cut.busy_s": ("s", "lower"),
    "metrics.normalized_cut.busy_s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "constraint.node_balance.busy_s": ("s", "lower"),
    "constraint.representation_residual.busy_s": ("s", "lower"),
    "constraint.self_s": ("s", "lower"),
    "multiplex.parse_multiplex.busy_s": ("s", "lower"),
    "multiplex.parse_multiplex.lines_per_s": ("lines/s", "higher"),
    "multiplex.knn_layer_graph.busy_s": ("s", "lower"),
    "multiplex.knn_layer_graph.calls": ("count", "lower"),
    "multiplex.aggregate_layers.busy_s": ("s", "lower"),
    "multiplex.drop_isolated_nodes.kept_frac": ("ratio", "higher"),
    "multiplex.self_s": ("s", "lower"),
    "experiments.fair_sc_baseline.call_ms_p50": ("ms", "lower"),
    "experiments.run_experiment.self_s": ("s", "lower"),
    "experiments.setup_share": ("ratio", "lower"),
    "experiments.parallel_efficiency": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

CONSTRAINED = ("urepsc", "nrepsc")
UNCONSTRAINED = ("usc", "nsc")


def read_rows(results_csv: Path) -> list[dict]:
    with Path(results_csv).open(newline="") as handle:
        return list(csv.DictReader(handle))


def stripped(rows: list[dict]) -> list[dict]:
    """Rows without the wall-clock column."""
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


def check_rows(workload: Workload, rows: list[dict]) -> list[str]:
    """Problems with one sweep's ``results.csv`` rows; empty when correct."""
    problems = []
    if len(rows) != workload.rows:
        problems.append(f"expected {workload.rows} rows, got {len(rows)}")
    for row in rows:
        if row.get("error"):
            problems.append(f"{row['algorithm']} N={row['N']} trial={row['trial']}: {row['error']}")
    if workload.exact_recovery:
        for row in rows:
            if row["algorithm"] in CONSTRAINED and row["accuracy_nodes"] and \
                    float(row["accuracy_nodes"]) != 1.0:
                problems.append(f"{row['algorithm']} N={row['N']} K={row['K']}: accuracy "
                                f"{row['accuracy_nodes']} is not 1.0")
    points: dict[tuple, dict[bool, list[float]]] = {}
    for row in rows:
        if row.get("error") or not row["max_representation_residual"]:
            continue
        if row["algorithm"] in CONSTRAINED or row["algorithm"] in UNCONSTRAINED:
            side = points.setdefault((row["N"], row["K"], row["d"]), {True: [], False: []})
            side[row["algorithm"] in CONSTRAINED].append(float(row["max_representation_residual"]))
    for point, side in sorted(points.items()):
        if side[True] and side[False]:
            constrained = sum(side[True]) / len(side[True])
            unconstrained = sum(side[False]) / len(side[False])
            if constrained > unconstrained + 1e-12:
                problems.append(f"N={point[0]} K={point[1]}: constrained residual "
                                f"{constrained:.6g} exceeds unconstrained {unconstrained:.6g}")
    return problems


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def quality(rows: list[dict]) -> dict[str, float]:
    """Mean quality columns over the rows that have them."""
    def column(name):
        return [float(row[name]) for row in rows if not row.get("error") and row[name]]

    return {
        "balance_mean": _mean(column("avg_balance")),
        "rcut_mean": _mean(column("rcut")),
        "accuracy_mean": _mean(column("accuracy_nodes")),
    }
