"""Config-driven experiment sweeps with deterministic CSV output.

An experiment is described by a flat key-value text file (see
``parse_config_text`` for the grammar), expanded into a grid of
(graph size, cluster count, ...) points, and executed trial by trial with
seeds derived as ``base_seed + trial``. Every run becomes one CSV row; a
failing run records its error in the ``error`` column and the sweep goes
on. Given the same config, two executions produce byte-identical output
except for the wall-clock ``runtime_ms`` column, regardless of how many
worker processes are used.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import clustering
from .clustering import KMeansConfig, ClusteringResult, usc, urepsc, nrepsc
from .errors import ConfigError, RepscError
from .graphs import (
    ClusterAssignment,
    Graph,
    RppParams,
    as_adjacency,
    contiguous_assignment,
    build_d_regular_rep_graph,
    sample_planted_partition_rep_graph,
    sample_rpp,
    write_graph,
)
from .metrics import score_partition
from .multiplex import build_working_graphs, load_node_names
from .theory import expected_spectrum, misclustering_bound_shape
from .graphs import expected_adjacency

MODES = ("d_regular_sweep", "planted_partition_sweep", "real_network", "expected_case_check")

CSV_COLUMNS = (
    "mode", "algorithm", "N", "K", "d", "rank", "p", "q", "r", "s",
    "trial", "seed", "accuracy_nodes", "mistake_fraction", "rcut", "ncut",
    "avg_balance", "min_balance", "max_representation_residual",
    "balance_over_rcut", "gamma", "bound_shape_unnormalized",
    "bound_shape_normalized", "runtime_ms", "error",
)
METRIC_COLUMNS = (
    "accuracy_nodes", "mistake_fraction", "rcut", "ncut", "avg_balance",
    "min_balance", "max_representation_residual", "balance_over_rcut",
    "gamma", "bound_shape_unnormalized", "bound_shape_normalized", "runtime_ms",
)
KEY_COLUMNS = ("mode", "algorithm", "N", "K", "d", "rank", "p", "q", "r", "s")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment sweep.

    Axis fields that a mode does not use may stay empty. ``rank_values``
    applies only to the approximate algorithms; when empty they default to
    one tenth of the node count, as does ``baseline_groups`` for the
    group-fairness baseline and ``rep_groups`` for the sampled
    representation graph of the planted-partition mode.
    """

    mode: str
    algorithms: tuple[str, ...]
    n_values: tuple[int, ...] = ()
    k_values: tuple[int, ...] = ()
    d_values: tuple[int, ...] = ()
    rank_values: tuple[int, ...] = ()
    p: float = 0.4
    q: float = 0.3
    r: float = 0.2
    s: float = 0.1
    p_in: float = 0.8
    p_out: float = 0.2
    rep_groups: int | None = None
    baseline_groups: int | None = None
    trials: int = 1
    base_seed: int = 0
    epsilon: float = 0.0
    kmeans_restarts: int = 10
    kmeans_max_iters: int = 100
    kmeans_rel_tol: float = 1e-9
    threads: int = 1
    out: str = "results"
    plots: bool = False
    multiplex_file: str | None = None
    rep_layers: tuple[int, int] | None = None
    sim_layers: tuple[int, int] | None = None
    knn_k: int = 5
    index_base: int = 0
    drop_isolated: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}; choose from {tuple(ALGORITHMS)}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")
        if self.mode in ("d_regular_sweep", "expected_case_check"):
            if not (self.n_values and self.k_values and self.d_values):
                raise ConfigError(f"mode {self.mode} needs n_values, k_values and d_values")
        elif self.mode == "planted_partition_sweep":
            if not (self.n_values and self.k_values):
                raise ConfigError("planted_partition_sweep needs n_values and k_values")
        elif self.mode == "real_network":
            if not self.multiplex_file:
                raise ConfigError("real_network mode needs multiplex_file")
            if self.rep_layers is None or self.sim_layers is None:
                raise ConfigError("real_network mode needs rep_layers and sim_layers")
            if not self.k_values:
                raise ConfigError("real_network mode needs k_values")


_LIST_KEYS = {"n_values", "k_values", "d_values", "rank_values"}
_INT_KEYS = {
    "rep_groups", "baseline_groups", "trials", "base_seed", "kmeans_restarts",
    "kmeans_max_iters", "threads", "knn_k", "index_base",
}
_FLOAT_KEYS = {"p", "q", "r", "s", "p_in", "p_out", "epsilon", "kmeans_rel_tol"}
_BOOL_KEYS = {"plots", "drop_isolated"}
_RANGE_KEYS = {"rep_layers", "sim_layers"}
_STR_KEYS = {"mode", "out", "multiplex_file"}


def parse_layer_range(text: str) -> tuple[int, int]:
    """Parse an inclusive ``a..b`` range (``a`` alone means ``a..a``)."""
    parts = text.split("..")
    if len(parts) == 1:
        lo = hi = int(parts[0])
    elif len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
    else:
        raise ConfigError(f"expected a range 'a..b', got {text!r}")
    if hi < lo:
        raise ConfigError(f"range {text!r} is empty")
    return lo, hi


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key-value config grammar.

    One ``key = value`` pair per line; ``#`` starts a comment; blank lines
    are skipped; list values are comma-separated; layer ranges use the
    inclusive ``a..b`` form; booleans accept true/false/yes/no/1/0.
    Unknown or duplicate keys are errors.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "algorithms":
                values[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            elif key in _LIST_KEYS:
                values[key] = tuple(int(v) for v in value.split(",") if v.strip())
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _BOOL_KEYS:
                lowered = value.lower()
                if lowered in ("true", "yes", "1"):
                    values[key] = True
                elif lowered in ("false", "no", "0"):
                    values[key] = False
                else:
                    raise ValueError(f"not a boolean: {value!r}")
            elif key in _RANGE_KEYS:
                values[key] = parse_layer_range(value)
            elif key in _STR_KEYS:
                values[key] = value
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    if "mode" not in values:
        raise ConfigError("config must set 'mode'")
    if "algorithms" not in values:
        raise ConfigError("config must set 'algorithms'")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def fair_sc_baseline(graph, rep_graph, k: int, cfg: KMeansConfig = KMeansConfig(),
                     groups: int | None = None, normalized: bool = False) -> ClusteringResult:
    """Group-fairness baseline on top of the constrained pipeline.

    Clusters the representation graph itself into ``groups`` groups with
    plain spectral clustering, replaces the representation structure by the
    induced block constraint (everyone in a group represents exactly that
    group), and runs the constrained algorithm. With one group the
    constraint degenerates and the result coincides with unconstrained
    clustering.
    """
    r = as_adjacency(rep_graph)
    n = r.shape[0]
    p_groups = groups if groups is not None else max(1, n // 10)
    if p_groups < 1:
        raise ValueError(f"groups must be at least 1, got {p_groups}")
    discovered = usc(r, p_groups, cfg)
    labels = discovered.assignment.labels
    induced = (labels[:, None] == labels[None, :]).astype(np.float64)
    induced_graph = Graph(induced, allows_self_loops=True)
    algorithm = nrepsc if normalized else urepsc
    return algorithm(graph, induced_graph, k, cfg)


class _Algorithm(NamedTuple):
    """A sweep algorithm: ``run(graph, rep, k, rank, kcfg, cfg)``.

    ``ranked`` algorithms take the approximation rank (swept over
    ``rank_values``, default a tenth of the node count); the others get
    ``rank=None``.
    """

    run: Callable[..., ClusteringResult]
    ranked: bool = False


ALGORITHMS = {
    "usc": _Algorithm(lambda graph, rep, k, rank, kcfg, cfg: clustering.usc(graph, k, kcfg)),
    "nsc": _Algorithm(lambda graph, rep, k, rank, kcfg, cfg: clustering.nsc(graph, k, kcfg)),
    "urepsc": _Algorithm(
        lambda graph, rep, k, rank, kcfg, cfg: clustering.urepsc(graph, rep, k, kcfg)),
    "nrepsc": _Algorithm(
        lambda graph, rep, k, rank, kcfg, cfg: clustering.nrepsc(graph, rep, k, kcfg)),
    "urepsc_approx": _Algorithm(
        lambda graph, rep, k, rank, kcfg, cfg: clustering.urepsc_approx(graph, rep, k, rank, kcfg),
        ranked=True),
    "nrepsc_approx": _Algorithm(
        lambda graph, rep, k, rank, kcfg, cfg: clustering.nrepsc_approx(graph, rep, k, rank, kcfg),
        ranked=True),
    "fair_sc_baseline": _Algorithm(
        lambda graph, rep, k, rank, kcfg, cfg: fair_sc_baseline(
            graph, rep, k, kcfg, groups=cfg.baseline_groups)),
}


@dataclass(frozen=True)
class _Task:
    grid_index: int
    n: int | None
    k: int
    d: int | None
    trial: int
    algorithm: str
    rank: int | None


def _build_tasks(cfg: ExperimentConfig) -> list[_Task]:
    tasks: list[_Task] = []
    if cfg.mode == "real_network":
        grid = [(None, k, None) for k in cfg.k_values]
    elif cfg.mode == "planted_partition_sweep":
        grid = [(n, k, None) for n in cfg.n_values for k in cfg.k_values]
    else:
        grid = [(n, k, d) for n in cfg.n_values for k in cfg.k_values for d in cfg.d_values]
    for grid_index, (n, k, d) in enumerate(grid):
        for trial in range(cfg.trials):
            for algorithm in cfg.algorithms:
                if ALGORITHMS[algorithm].ranked and cfg.rank_values:
                    ranks: tuple[int | None, ...] = cfg.rank_values
                else:
                    ranks = (None,)
                for rank in ranks:
                    tasks.append(_Task(grid_index, n, k, d, trial, algorithm, rank))
    return tasks


@functools.lru_cache(maxsize=64)
def _regular_setup(cfg: ExperimentConfig, n: int, k: int, d: int):
    """Grid-point setup shared across trials: graph, truth, spectrum info."""
    rep, truth = build_d_regular_rep_graph(n, k, d)
    params = RppParams(assignment=truth, rep_graph=rep, p=cfg.p, q=cfg.q, r=cfg.r, s=cfg.s)
    try:
        spectrum = expected_spectrum(params)
        bounds = misclustering_bound_shape(params, cfg.epsilon, spectrum=spectrum)
        info = (spectrum.gamma, bounds.unnormalized, bounds.normalized)
    except (RepscError, ValueError):
        info = None
    expected = expected_adjacency(params) if cfg.mode == "expected_case_check" else None
    return rep, truth, params, expected, info


@functools.lru_cache(maxsize=4)
def _real_setup(cfg: ExperimentConfig):
    return build_working_graphs(
        Path(cfg.multiplex_file), cfg.rep_layers, cfg.sim_layers, cfg.knn_k,
        index_base=cfg.index_base, drop_isolated=cfg.drop_isolated,
    )


def _task_inputs(cfg: ExperimentConfig, task: _Task, seed: int):
    """Return (graph_or_matrix, rep_graph, truth_or_None, spectrum_info)."""
    if cfg.mode == "d_regular_sweep":
        rep, truth, params, _, info = _regular_setup(cfg, task.n, task.k, task.d)
        return sample_rpp(params, seed), rep, truth, info
    if cfg.mode == "expected_case_check":
        rep, truth, _, expected, info = _regular_setup(cfg, task.n, task.k, task.d)
        return expected, rep, truth, info
    if cfg.mode == "planted_partition_sweep":
        groups = cfg.rep_groups if cfg.rep_groups is not None else max(1, task.n // 10)
        rep, _ = sample_planted_partition_rep_graph(
            task.n, groups, cfg.p_in, cfg.p_out, [seed, 0]
        )
        truth = contiguous_assignment(task.n, task.k)
        params = RppParams(assignment=truth, rep_graph=rep, p=cfg.p, q=cfg.q, r=cfg.r, s=cfg.s)
        return sample_rpp(params, [seed, 1]), rep, truth, None
    if cfg.mode == "real_network":
        sim, rep, _ = _real_setup(cfg)
        return sim, rep, None, None
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def _execute_task(args: tuple[ExperimentConfig, _Task]) -> dict:
    cfg, task = args
    seed = cfg.base_seed + task.trial
    kcfg = KMeansConfig(
        restarts=cfg.kmeans_restarts,
        max_iters=cfg.kmeans_max_iters,
        rel_tol=cfg.kmeans_rel_tol,
        seed=seed,
    )
    row: dict[str, object] = {column: None for column in CSV_COLUMNS}
    row.update(
        mode=cfg.mode, algorithm=task.algorithm, N=task.n, K=task.k, d=task.d,
        rank=task.rank, trial=task.trial, seed=seed,
    )
    if cfg.mode != "real_network":
        row.update(p=cfg.p, q=cfg.q, r=cfg.r, s=cfg.s)
    try:
        graph, rep, truth, info = _task_inputs(cfg, task, seed)
        n = rep.n
        row["N"] = n
        if info is not None:
            row["gamma"], row["bound_shape_unnormalized"], row["bound_shape_normalized"] = info
        algorithm = ALGORITHMS[task.algorithm]
        rank = task.rank
        if algorithm.ranked and rank is None:
            rank = max(1, n // 10)
            row["rank"] = rank
        start = time.perf_counter()
        result = algorithm.run(graph, rep, task.k, rank, kcfg, cfg)
        row["runtime_ms"] = (time.perf_counter() - start) * 1000.0
        score = score_partition(graph, rep, result.assignment, truth)
        row.update(
            accuracy_nodes=score.accuracy,
            mistake_fraction=score.mistake_fraction,
            rcut=score.rcut,
            ncut=score.ncut,
            avg_balance=score.avg_balance,
            min_balance=score.min_balance,
            max_representation_residual=score.max_representation_residual,
            balance_over_rcut=score.balance_over_rcut,
        )
    except Exception as exc:  # any failure stays in its own row; the sweep goes on
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        number = float(value)
        if math.isinf(number):
            return "inf" if number > 0 else "-inf"
        return repr(number)
    return str(value)


@dataclass
class ExperimentResult:
    rows: list[dict]
    results_path: Path
    aggregate_path: Path
    plot_paths: list[Path] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return sum(1 for row in self.rows if row.get("error"))


def _write_results_csv(rows: list[dict], path: Path) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[column]) for column in CSV_COLUMNS])


def _aggregate_rows(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = list(KEY_COLUMNS) + ["n_runs"]
    for metric in METRIC_COLUMNS:
        header.extend([f"{metric}_mean", f"{metric}_std"])
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(row[column] for column in KEY_COLUMNS)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    table: list[list[str]] = []
    for key in order:
        good = [row for row in groups[key] if not row.get("error")]
        cells = [_format_cell(value) for value in key] + [str(len(good))]
        for metric in METRIC_COLUMNS:
            values = [float(row[metric]) for row in good
                      if row[metric] is not None and not (
                          isinstance(row[metric], float) and math.isinf(row[metric]))]
            if values:
                cells.append(_format_cell(float(np.mean(values))))
                cells.append(_format_cell(float(np.std(values))))
            else:
                cells.extend(["", ""])
        table.append(cells)
    return header, table


def _write_aggregate_csv(rows: list[dict], path: Path) -> None:
    header, table = _aggregate_rows(rows)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(table)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def write_line_chart_svg(path: Path, title: str, x_label: str, y_label: str,
                         series: dict[str, list[tuple[float, float]]]) -> None:
    """Write a minimal self-contained SVG line chart.

    One polyline per series, linear axes spanning the data range, numeric
    tick labels at the extremes. Deterministic output for identical data.
    """
    width, height = 640, 420
    left, right, top, bottom = 64.0, 24.0, 36.0, 48.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        return
    xs = [pt[0] for pt in points]
    ys = [pt[1] for pt in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h:.1f}" x2="{left + plot_w:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h:.1f}" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{x_label}</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {top + plot_h / 2:.1f})">'
        f'{y_label}</text>',
        f'<text x="{left}" y="{height - 30}" text-anchor="middle" font-size="10" '
        f'font-family="sans-serif">{x_lo:g}</text>',
        f'<text x="{left + plot_w:.1f}" y="{height - 30}" text-anchor="middle" '
        f'font-size="10" font-family="sans-serif">{x_hi:g}</text>',
        f'<text x="{left - 6}" y="{top + plot_h:.1f}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{y_lo:g}</text>',
        f'<text x="{left - 6}" y="{top + 4:.1f}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{y_hi:g}</text>',
    ]
    for index, (name, pts) in enumerate(series.items()):
        if not pts:
            continue
        color = _PALETTE[index % len(_PALETTE)]
        ordered = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in ordered)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in ordered:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        legend_y = top + 14 * index
        parts.append(
            f'<line x1="{left + plot_w - 110:.1f}" y1="{legend_y:.1f}" '
            f'x2="{left + plot_w - 90:.1f}" y2="{legend_y:.1f}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 84:.1f}" y="{legend_y + 4:.1f}" font-size="11" '
            f'font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _sweep_axis(cfg: ExperimentConfig) -> str:
    for column, values in (("N", cfg.n_values), ("K", cfg.k_values),
                           ("d", cfg.d_values), ("rank", cfg.rank_values)):
        if len(set(values)) > 1:
            return column
    return "K" if cfg.mode == "real_network" else "N"


def _write_plots(cfg: ExperimentConfig, rows: list[dict], out_dir: Path) -> list[Path]:
    axis = _sweep_axis(cfg)
    paths = []
    for metric in ("accuracy_nodes", "mistake_fraction", "rcut", "ncut",
                   "avg_balance", "max_representation_residual"):
        series: dict[str, list[tuple[float, float]]] = {}
        grouped: dict[tuple[str, float], list[float]] = {}
        for row in rows:
            if row.get("error") or row[metric] is None or row[axis] is None:
                continue
            key = (str(row["algorithm"]), float(row[axis]))
            grouped.setdefault(key, []).append(float(row[metric]))
        for (algorithm, x), values in grouped.items():
            series.setdefault(algorithm, []).append((x, float(np.mean(values))))
        if not any(series.values()):
            continue
        path = out_dir / f"plot_{metric}.svg"
        write_line_chart_svg(path, f"{metric} vs {axis}", axis, metric, series)
        paths.append(path)
    return paths


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the sweep described by the config and write the output files.

    Returns the in-memory rows along with the paths written:
    ``results.csv`` (one row per run) and ``aggregate.csv`` (mean and
    population standard deviation per grid point and algorithm, error rows
    excluded). With ``threads > 1`` the runs execute in a process pool;
    output order and content do not depend on scheduling.
    """
    tasks = _build_tasks(cfg)
    args = [(cfg, task) for task in tasks]
    if cfg.threads > 1:
        chunk = max(1, len(args) // (cfg.threads * 4))
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(_execute_task, args, chunksize=chunk))
    else:
        rows = [_execute_task(arg) for arg in args]
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    aggregate_path = out_dir / "aggregate.csv"
    _write_results_csv(rows, results_path)
    _write_aggregate_csv(rows, aggregate_path)
    plot_paths = _write_plots(cfg, rows, out_dir) if cfg.plots else []
    return ExperimentResult(rows, results_path, aggregate_path, plot_paths)


CHECKED_ALGORITHMS = ("urepsc", "nrepsc", "urepsc_approx", "nrepsc_approx")


def check_expected(cfg: ExperimentConfig) -> tuple[list[str], bool]:
    """Run the expected-case mode and verify exact recovery.

    For every grid point and every constrained algorithm in the config, the
    run on the expected similarity matrix must recover the planted partition
    exactly (zero mistake fraction). Returns human-readable per-check lines
    and an overall flag.
    """
    if cfg.mode != "expected_case_check":
        cfg = replace(cfg, mode="expected_case_check")
    result = run_experiment(cfg)
    lines = []
    all_ok = True
    for row in result.rows:
        label = (f"{row['algorithm']} N={row['N']} K={row['K']} d={row['d']} "
                 f"trial={row['trial']}")
        if row.get("error"):
            if row["algorithm"] in CHECKED_ALGORITHMS:
                all_ok = False
                lines.append(f"FAIL {label}: {row['error']}")
            else:
                lines.append(f"SKIP {label}: {row['error']}")
            continue
        if row["algorithm"] not in CHECKED_ALGORITHMS:
            lines.append(f"INFO {label}: mistake_fraction={row['mistake_fraction']!r}")
            continue
        if row["mistake_fraction"] == 0.0:
            lines.append(f"PASS {label}: exact recovery")
        else:
            all_ok = False
            lines.append(f"FAIL {label}: mistake_fraction={row['mistake_fraction']!r}")
    return lines, all_ok


def ingest_to_dir(multiplex_file, rep_layers: tuple[int, int], sim_layers: tuple[int, int],
                  knn_k: int, out_dir, index_base: int = 0,
                  drop_isolated: bool = True, names_file=None) -> dict[str, Path]:
    """Build the representation and similarity graphs from a multiplex file.

    Applies the nearest-neighbor reduction per layer, aggregates each layer
    range by union, optionally drops nodes isolated in either graph, and
    writes both graphs in the package edge-list format plus the kept node
    indices (one original index per line, with the node's name appended
    when a name sidecar file is given). Layer ranges are inclusive and refer
    to the layer ids as written in the file.
    """
    names = load_node_names(Path(names_file)) if names_file is not None else None
    sim, rep, kept = build_working_graphs(
        Path(multiplex_file), rep_layers, sim_layers, knn_k,
        index_base=index_base, drop_isolated=drop_isolated, names=names,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "representation": out / "representation.edges",
        "similarity": out / "similarity.edges",
        "kept_nodes": out / "kept_nodes.txt",
    }
    write_graph(rep, paths["representation"])
    write_graph(sim, paths["similarity"])
    if names is not None:
        lines = [f"{i}\t{names[i]}" for i in kept]
    else:
        lines = [str(i) for i in kept]
    paths["kept_nodes"].write_text("\n".join(lines) + "\n")
    return paths
