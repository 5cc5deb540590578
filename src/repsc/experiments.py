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
import inspect
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import clustering
from .clustering import KMeansConfig, ClusteringResult, usc
from .errors import ConfigError, RepscError, _naming_file
from .graphs import (
    ClusterAssignment,
    RppParams,
    _check_k,
    _memoized,
    _parse_float,
    _parse_int,
    contiguous_assignment,
    build_d_regular_rep_graph,
    check_probabilities,
    expected_adjacency,
    sample_planted_partition_rep_graph,
    sample_rpp,
    write_graph,
)
from .metrics import score_partition
from .multiplex import build_working_graphs, load_node_names
from .theory import check_epsilon, expected_spectrum, misclustering_bound_shape

MODES = ("d_regular_sweep", "planted_partition_sweep", "real_network", "expected_case_check")

CSV_COLUMNS = (
    "mode", "algorithm", "N", "K", "d", "rank", "p", "q", "r", "s",
    "trial", "seed", "accuracy_nodes", "mistake_fraction", "rcut", "ncut",
    "avg_balance", "min_balance", "max_representation_residual",
    "balance_over_rcut", "gamma", "bound_shape_unnormalized",
    "bound_shape_normalized", "kmeans_iters", "runtime_ms", "error",
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
    kmeans_restarts: int = KMeansConfig.restarts
    kmeans_max_iters: int = KMeansConfig.max_iters
    kmeans_rel_tol: float = KMeansConfig.rel_tol
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
        for name in ("trials", "threads", "knn_k", "rep_groups", "baseline_groups"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        for name in ("n_values", "k_values", "d_values", "rank_values"):
            if any(value < 1 for value in getattr(self, name)):
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed}")
        try:
            check_probabilities(ordered=True, p=self.p, q=self.q, r=self.r, s=self.s)
            check_probabilities(p_in=self.p_in, p_out=self.p_out)
            check_epsilon(self.epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc))
        try:
            self.kmeans_config()
        except ValueError as exc:  # the message starts with the KMeansConfig field's name
            raise ConfigError(f"kmeans_{exc}")
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

    def kmeans_config(self, seed: int = 0) -> KMeansConfig:
        """The k-means settings of this sweep, seeded for one run."""
        return KMeansConfig(restarts=self.kmeans_restarts, max_iters=self.kmeans_max_iters,
                            rel_tol=self.kmeans_rel_tol, seed=seed)


def parse_layer_range(text: str) -> tuple[int, int]:
    """Parse an inclusive ``a..b`` range (``a`` alone means ``a..a``) of
    ASCII decimal integers."""
    parts = text.split("..")
    if len(parts) not in (1, 2):
        raise ConfigError(f"expected a range 'a..b', got {text!r}")
    try:
        lo, hi = _parse_int(parts[0].strip()), _parse_int(parts[-1].strip())
    except ValueError:
        raise ConfigError(f"range bounds must be integers, got {text!r}")
    if hi < lo:
        raise ConfigError(f"range {text!r} is empty")
    return lo, hi


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise ValueError(f"not a boolean: {text!r}")
    return _BOOLEANS[text.lower()]


def _split(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


# A config value is converted by the annotation of its ExperimentConfig field.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "str": str, "str | None": str, "int": _parse_int, "int | None": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool, "tuple[int, int] | None": parse_layer_range,
    "tuple[str, ...]": lambda text: tuple(_split(text)),
    "tuple[int, ...]": lambda text: tuple(map(_parse_int, _split(text))),
}
_FIELD_CONVERTERS = {item.name: _CONVERTERS[item.type] for item in fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key-value config grammar.

    One ``key = value`` pair per line; ``#`` starts a comment; blank lines
    are skipped; list values are comma-separated; layer ranges use the
    inclusive ``a..b`` form; integers are ASCII decimal with an optional
    sign, and reals are ASCII decimal or inf/nan without underscores;
    booleans accept true/false/yes/no/1/0.
    The keys are ``ExperimentConfig``'s fields, and each value is converted
    by the annotation of its field. Unknown or duplicate keys are errors.
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
            converter = _FIELD_CONVERTERS.get(key)
            if converter is None:
                raise ConfigError(f"unknown key {key!r}")
            values[key] = converter(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    if "mode" not in values:
        raise ConfigError("config must set 'mode'")
    if "algorithms" not in values:
        raise ConfigError("config must set 'algorithms'")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with _naming_file(path):
        return parse_config_text(Path(path).read_text())


def _tenth(n: int) -> int:
    """The default rank and group count: a tenth of the node count, at least 1."""
    return max(1, n // 10)


def fair_sc_baseline(graph, rep_graph, k: int, cfg: KMeansConfig = KMeansConfig(),
                     groups: int | None = None) -> ClusteringResult:
    """Group-fairness baseline: urepsc's problem under a group constraint.

    Clusters the representation graph itself into ``groups`` groups (default
    a tenth of the node count, at least 1) with plain spectral clustering,
    then solves urepsc's problem under Kleindessner et al.'s F^T H = 0: H
    lies in span(1) plus each group's zero-sum vectors. With one group the
    constraint is empty and the result is unconstrained clustering. A Graph
    R keeps each discovered assignment, keyed by the group count and
    ``cfg``, once the whole call succeeds; the final solve under the group
    constraint is not kept. ``k`` is checked before the discovery runs.
    """
    _check_k(k)
    count = groups if groups is not None else _tenth(clustering._order(rep_graph))
    return _memoized(rep_graph, ("groups", count, cfg),
                     lambda: usc(rep_graph, count, cfg).assignment.labels,
                     lambda labels: clustering._solve(graph, k, cfg,
                                                      ClusterAssignment(labels, count)))


# The sweep passes each function the representation graph, rank and group
# count only when its signature names ``rep_graph``, ``rank`` and ``groups``.
ALGORITHMS = {
    "usc": clustering.usc,
    "nsc": clustering.nsc,
    "urepsc": clustering.urepsc,
    "nrepsc": clustering.nrepsc,
    "urepsc_approx": clustering.urepsc_approx,
    "nrepsc_approx": clustering.nrepsc_approx,
    "fair_sc_baseline": fair_sc_baseline,
}


@dataclass(frozen=True)
class _Task:
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
    for n, k, d in grid:
        for trial in range(cfg.trials):
            for algorithm in cfg.algorithms:
                ranked = "rank" in inspect.signature(ALGORITHMS[algorithm]).parameters
                for rank in cfg.rank_values if ranked and cfg.rank_values else (None,):
                    tasks.append(_Task(n, k, d, trial, algorithm, rank))
    return tasks


def _one_entry_cache(build):
    """Keep ``build``'s result for its latest arguments only.

    Tasks run in grid point, trial, algorithm order, so consecutive calls
    share arguments. The held value is dropped before the next one is built,
    so two never coexist, and a failed build leaves nothing behind.
    """
    entry: list = []  # [args, value], or empty

    @functools.wraps(build)
    def cached(*args):
        if not entry or entry[0] != args:
            entry.clear()
            entry.extend((args, build(*args)))
        return entry[1]

    cached.cache_clear = entry.clear
    return cached


@_one_entry_cache
def _regular_setup(cfg: ExperimentConfig, n: int, k: int, d: int):
    """Grid-point setup shared across trials: graph, truth, spectrum info."""
    rep, truth = build_d_regular_rep_graph(n, k, d)
    params = RppParams(assignment=truth, rep_graph=rep, p=cfg.p, q=cfg.q, r=cfg.r, s=cfg.s)
    try:
        spectrum = expected_spectrum(params)
        bounds = misclustering_bound_shape(params, cfg.epsilon, spectrum=spectrum)
        info = (spectrum.gamma, bounds.unnormalized, bounds.normalized)
    except RepscError:
        info = None
    expected = expected_adjacency(params) if cfg.mode == "expected_case_check" else None
    return rep, truth, params, expected, info


@_one_entry_cache
def _real_setup(cfg: ExperimentConfig):
    return build_working_graphs(
        cfg.multiplex_file, cfg.rep_layers, cfg.sim_layers, cfg.knn_k,
        index_base=cfg.index_base, drop_isolated=cfg.drop_isolated,
    )


@_one_entry_cache
def _trial_inputs(cfg: ExperimentConfig, n: int | None, k: int, d: int | None, seed: int):
    """Return (graph_or_matrix, rep_graph, truth_or_None, spectrum_info), shared by
    every row of a trial: one sampled graph, and one R object, which keeps
    each of its solves."""
    if cfg.mode in ("d_regular_sweep", "expected_case_check"):
        rep, truth, params, expected, info = _regular_setup(cfg, n, k, d)
        graph = sample_rpp(params, seed) if cfg.mode == "d_regular_sweep" else expected
        return graph, rep, truth, info
    if cfg.mode == "planted_partition_sweep":
        groups = cfg.rep_groups if cfg.rep_groups is not None else _tenth(n)
        rep, _ = sample_planted_partition_rep_graph(n, groups, cfg.p_in, cfg.p_out, [seed, 0])
        truth = contiguous_assignment(n, k)
        params = RppParams(assignment=truth, rep_graph=rep, p=cfg.p, q=cfg.q, r=cfg.r, s=cfg.s)
        return sample_rpp(params, [seed, 1]), rep, truth, None
    sim, rep, _ = _real_setup(cfg)  # real_network, the one mode left
    return sim, rep, None, None


def _execute_task(args: tuple[ExperimentConfig, _Task]) -> dict:
    cfg, task = args
    seed = cfg.base_seed + task.trial
    kcfg = cfg.kmeans_config(seed)
    row: dict[str, object] = {column: None for column in CSV_COLUMNS}
    row.update(
        mode=cfg.mode, algorithm=task.algorithm, N=task.n, K=task.k, d=task.d,
        rank=task.rank, trial=task.trial, seed=seed,
    )
    if cfg.mode != "real_network":
        row.update(p=cfg.p, q=cfg.q, r=cfg.r, s=cfg.s)
    try:
        graph, rep, truth, info = _trial_inputs(cfg, task.n, task.k, task.d, seed)
        n = rep.n
        row["N"] = n
        if info is not None:
            row["gamma"], row["bound_shape_unnormalized"], row["bound_shape_normalized"] = info
        run = ALGORITHMS[task.algorithm]
        given = {"rep_graph": rep, "rank": task.rank, "groups": cfg.baseline_groups}
        inputs = {name: given[name] for name in inspect.signature(run).parameters if name in given}
        if "rank" in inputs and task.rank is None:
            inputs["rank"] = row["rank"] = _tenth(n)
        start = time.perf_counter()
        result = run(graph, k=task.k, cfg=kcfg, **inputs)
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
            kmeans_iters=result.kmeans_iters,
        )
    except Exception as exc:  # any failure stays in its own row; the sweep goes on
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # inf and -inf included
    return str(value)  # str, int and numpy integers


@dataclass
class ExperimentResult:
    rows: list[dict]
    results_path: Path
    aggregate_path: Path
    plot_paths: list[Path] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return sum(1 for row in self.rows if row.get("error"))


def _write_csv(path: Path, header, table) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(table)


def _aggregate_rows(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = list(KEY_COLUMNS) + ["n_runs"]
    for metric in METRIC_COLUMNS:
        header.extend([f"{metric}_mean", f"{metric}_std"])
    groups: dict[tuple, list[dict]] = {}  # in order of first appearance
    for row in rows:
        groups.setdefault(tuple(row[column] for column in KEY_COLUMNS), []).append(row)
    table: list[list[str]] = []
    for key, members in groups.items():
        good = [row for row in members if not row.get("error")]
        cells = [_format_cell(value) for value in key] + [str(len(good))]
        for metric in METRIC_COLUMNS:
            values = [float(row[metric]) for row in good
                      if row[metric] is not None and not math.isinf(row[metric])]
            if values:
                cells.append(_format_cell(float(np.mean(values))))
                cells.append(_format_cell(float(np.std(values))))
            else:
                cells.extend(["", ""])
        table.append(cells)
    return header, table


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
        # A forked pool starts all its workers on the first task, so it gets
        # no more of them than there are chunks.
        workers = max(1, min(cfg.threads, -(-len(args) // chunk)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_execute_task, args, chunksize=chunk))
    else:
        rows = [_execute_task(arg) for arg in args]
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    aggregate_path = out_dir / "aggregate.csv"
    _write_csv(results_path, CSV_COLUMNS,
               ([_format_cell(row[column]) for column in CSV_COLUMNS] for row in rows))
    _write_csv(aggregate_path, *_aggregate_rows(rows))
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
    result = run_experiment(replace(cfg, mode="expected_case_check"))
    lines = []
    for row in result.rows:
        label = (f"{row['algorithm']} N={row['N']} K={row['K']} d={row['d']} "
                 f"trial={row['trial']}")
        checked = row["algorithm"] in CHECKED_ALGORITHMS
        if row.get("error"):
            lines.append(f"{'FAIL' if checked else 'SKIP'} {label}: {row['error']}")
        elif not checked:
            lines.append(f"INFO {label}: mistake_fraction={row['mistake_fraction']!r}")
        elif row["mistake_fraction"] == 0.0:
            lines.append(f"PASS {label}: exact recovery")
        else:
            lines.append(f"FAIL {label}: mistake_fraction={row['mistake_fraction']!r}")
    return lines, not any(line.startswith("FAIL") for line in lines)


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
    names = load_node_names(names_file) if names_file is not None else None
    sim, rep, kept = build_working_graphs(
        multiplex_file, rep_layers, sim_layers, knn_k,
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
