"""Span tracing of the repsc package from outside its source tree.

``Tracer.install`` replaces every module-level binding of a package function
with a wrapper that records a span: name, start, end, parent, task and pid.
Modules import functions by name (``from .linalg import sym_eig``), so the
wrapper must sit at the name each caller resolves, not only at the defining
module; installing walks every loaded ``repsc`` module and every dict bound
at module level for that reason.

Spans stay in memory. The process that installed the tracer writes them out
when the sweep ends (``flush``). Worker processes write their own file each
time a top-level span closes, because pool workers leave through
``os._exit`` and never reach an exit hook. Times come from
``time.monotonic_ns``, a system-wide clock on Linux, so spans of different
processes share one time axis.

``analyse`` turns the spans of one run into per-layer numbers.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ENTRY = "experiments.run_experiment"
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def _shape0(value) -> int:
    return int(np.shape(getattr(value, "adjacency", value))[0])


def _digest(value) -> str:
    matrix = np.ascontiguousarray(getattr(value, "adjacency", value), dtype=np.float64)
    return hashlib.blake2b(matrix.tobytes(), digest_size=16).hexdigest()


# Extra facts recorded on a span after the call returns, outside its timed
# interval: what work the call did and how much of it was useful.
PROBES = {
    "linalg.sym_eig": lambda args, kw, out: {"n": _shape0(args[0])},
    "linalg.null_space_basis": lambda args, kw, out: {"n": _shape0(args[0]), "kept": int(out.shape[1])},
    "clustering.constraint_null_basis": lambda args, kw, out: {"r": _digest(args[0])},
    "multiplex.drop_isolated_nodes": lambda args, kw, out: {"n": _shape0(args[0]), "kept": int(len(out[2]))},
}


def _is_traced(value) -> bool:
    return getattr(value, "__perfbench_traced__", False)


def _origin(value, package: str):
    """The package function behind ``value`` (itself, or what an
    ``lru_cache`` wraps), or None when it is not one."""
    if _is_traced(value):
        return None
    if inspect.isfunction(value):
        base = value
    elif callable(value) and hasattr(value, "cache_info") and inspect.isfunction(
            getattr(value, "__wrapped__", None)):
        base = value.__wrapped__
    else:
        return None
    module = getattr(base, "__module__", "") or ""
    return base if module == package or module.startswith(package + ".") else None


def package_modules(package: str) -> list:
    """Import the package and all its submodules; return the module objects."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))]


def untraced_bindings(package: str) -> list[str]:
    """Module-level bindings (``module.name`` or ``module.name[key]``) of
    package functions that are not wrapped."""
    missing = []
    for module in package_modules(package):
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            if _origin(value, package) is not None:
                missing.append(f"{module.__name__}.{attr}")
            elif type(value) is dict:
                missing.extend(f"{module.__name__}.{attr}[{key!r}]"
                               for key, item in value.items()
                               if _origin(item, package) is not None)
    return missing


class Tracer:
    """Records spans for every call into a package's functions."""

    def __init__(self, out_dir, package: str = "repsc"):
        self.out_dir = Path(out_dir)
        self.package = package
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[dict] = []
        self._stack: list[tuple[str, str, str]] = []
        self._next_id = 0
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _after_fork_in_child(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._next_id = 0

    def _call(self, fn, name, args, kwargs):
        span_id = f"{self.pid}.{self._next_id}"
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[2] == ENTRY:
            task = span_id
        else:
            task = parent[1]
        self._stack.append((span_id, task, name))
        ok = False
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            span = {"id": span_id, "parent": parent[0] if parent else None, "task": task,
                    "name": name, "start": start, "end": end, "pid": self.pid, "ok": ok}
            if ok and name in PROBES:
                span["attrs"] = PROBES[name](args, kwargs, result)
            self.spans.append(span)
            if not self._stack and self.pid != self.main_pid:
                self.flush()
        return result

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with (self.out_dir / f"spans-{self.pid}.jsonl").open("a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    # -- installing --------------------------------------------------------

    def _wrapper(self, value, base):
        key = id(value)
        if key not in self._wrappers:
            module = base.__module__
            short = module[len(self.package) + 1:] if module != self.package else module
            name = f"{short}.{base.__qualname__}"
            tracer = self

            @functools.wraps(value)
            def traced(*args, **kwargs):
                return tracer._call(value, name, args, kwargs)

            traced.__perfbench_traced__ = True
            self._wrappers[key] = (value, traced)
        return self._wrappers[key][1]

    def install(self) -> int:
        """Wrap every binding of a package function; return how many
        distinct functions are wrapped."""
        for module in package_modules(self.package):
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                base = _origin(value, self.package)
                if base is not None:
                    setattr(module, attr, self._wrapper(value, base))
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        item_base = _origin(item, self.package)
                        if item_base is not None:
                            value[key] = self._wrapper(item, item_base)
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        return len(self._wrappers)


def install_from_env() -> Tracer | None:
    """Install a tracer when the trace directory variable is set (used by
    worker processes started with the spawn or forkserver method)."""
    out_dir = os.environ.get(TRACE_DIR_ENV)
    if not out_dir:
        return None
    tracer = Tracer(out_dir)
    tracer.main_pid = -1
    tracer.install()
    return tracer


# -- analysis --------------------------------------------------------------


def load_spans(trace_dir) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with path.open() as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _union_ns(intervals) -> int:
    total = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


class SpanTree:
    """Spans of one run linked into a tree across processes.

    A top-level span of a worker process is attached to the innermost span of
    the main process whose interval contains its start, which is the call
    that handed the work to the pool.
    """

    def __init__(self, spans: list[dict], main_pid: int):
        self.spans = {span["id"]: dict(span) for span in spans}
        main = sorted((s for s in self.spans.values() if s["pid"] == main_pid),
                      key=lambda s: (s["start"], -s["end"]))
        for span in self.spans.values():
            if span["parent"] is None and span["pid"] != main_pid:
                holders = [m for m in main if m["start"] <= span["start"] <= m["end"]]
                if holders:
                    span["parent"] = max(holders, key=lambda m: (m["start"], -m["end"]))["id"]
        self.children: dict[str, list[dict]] = {}
        for span in self.spans.values():
            if span["parent"] in self.spans:
                self.children.setdefault(span["parent"], []).append(span)

    @staticmethod
    def duration(span) -> float:
        return (span["end"] - span["start"]) / 1e9

    def self_time(self, span) -> float:
        """Span duration minus the part of it its child spans cover."""
        covered = _union_ns(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in self.children.get(span["id"], ())
            if c["end"] > span["start"] and c["start"] < span["end"]
        )
        return (span["end"] - span["start"] - covered) / 1e9

    def ancestors(self, span):
        seen = set()
        parent = self.spans.get(span["parent"])
        while parent is not None and parent["id"] not in seen:
            seen.add(parent["id"])
            yield parent
            parent = self.spans.get(parent["parent"])

    def named(self, name) -> list[dict]:
        return [s for s in self.spans.values() if s["name"] == name]

    def busy(self, name) -> float:
        """Total time inside calls of ``name``, nested calls counted once."""
        return sum(self.duration(s) for s in self.named(name)
                   if all(a["name"] != name for a in self.ancestors(s)))

    def layer_self(self, layer, exclude=()) -> float:
        """Self time of the layer's spans, leaving out the subtrees of the
        functions named in ``exclude``."""
        total = 0.0
        for span in self.spans.values():
            if span["name"].split(".", 1)[0] != layer or span["name"] in exclude:
                continue
            if any(a["name"] in exclude for a in self.ancestors(span)):
                continue
            total += self.self_time(span)
        return total

    def task_busy(self) -> float:
        """Summed duration of the units of work the sweep entry point ran."""
        return sum(self.duration(s) for s in self.spans.values()
                   if self.spans.get(s["parent"], {}).get("name") == ENTRY)


ALGORITHMS = ("usc", "nsc", "urepsc", "nrepsc", "urepsc_approx", "nrepsc_approx")
SETUP_FUNCTIONS = (
    "graphs.build_d_regular_rep_graph", "theory.expected_spectrum",
    "theory.misclustering_bound_shape", "multiplex.parse_multiplex",
    "multiplex.knn_layer_graph", "multiplex.aggregate_layers",
    "multiplex.drop_isolated_nodes",
)
BUSY = (
    "linalg.null_space_basis", "linalg.sym_eig", "linalg.low_rank_approx",
    "linalg.sqrt_and_inv_sqrt", "clustering.constraint_null_basis", "clustering.kmeans",
    "theory.expected_spectrum", "theory.misclustering_bound_shape", "graphs.sample_rpp",
    "graphs.sample_planted_partition_rep_graph", "graphs.build_d_regular_rep_graph",
    "metrics.score_partition", "metrics.ratio_cut", "metrics.normalized_cut",
    "constraint.node_balance", "constraint.representation_residual",
    "multiplex.parse_multiplex", "multiplex.knn_layer_graph", "multiplex.aggregate_layers",
)
CALLS = (
    "linalg.sym_eig", "clustering.constraint_null_basis", "clustering.kmeans",
    "theory.expected_spectrum", "multiplex.knn_layer_graph",
) + tuple(f"clustering.{a}" for a in ALGORITHMS)
LAYER_SELF = ("graphs", "linalg", "constraint", "metrics", "theory", "multiplex", "cli")


def _p50_ms(tree, name) -> float:
    durations = [tree.duration(s) * 1000.0 for s in tree.named(name)]
    return statistics.median(durations) if durations else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def analyse(tree: SpanTree, *, sweep_s: float, traced_sweep_s: float, workers: int,
            serial_task_busy_s: float, multiplex_lines: int) -> dict[str, float]:
    """Per-layer metrics of one traced sweep.

    ``sweep_s`` and ``traced_sweep_s`` are the untraced and traced wall times
    of the same sweep; ``serial_task_busy_s`` is the task busy time of a
    traced one-worker run of the same config.
    """
    m: dict[str, float] = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = tree.busy(name)
    for name in CALLS:
        m[f"{name}.calls"] = float(len(tree.named(name)))
    for algorithm in ALGORITHMS:
        m[f"clustering.{algorithm}.call_ms_p50"] = _p50_ms(tree, f"clustering.{algorithm}")
    m["experiments.fair_sc_baseline.call_ms_p50"] = _p50_ms(tree, "experiments.fair_sc_baseline")

    nulls = [s["attrs"] for s in tree.named("linalg.null_space_basis") if "attrs" in s]
    m["linalg.null_space_basis.kept_frac"] = _ratio(sum(a["kept"] for a in nulls),
                                                   sum(a["n"] for a in nulls))
    m["linalg.sym_eig.dim3_sum"] = float(sum(
        s["attrs"]["n"] ** 3 for s in tree.named("linalg.sym_eig") if "attrs" in s))
    bases = [s["attrs"]["r"] for s in tree.named("clustering.constraint_null_basis") if "attrs" in s]
    m["clustering.constraint_null_basis.distinct_frac"] = _ratio(len(set(bases)), len(bases))
    drops = [s["attrs"] for s in tree.named("multiplex.drop_isolated_nodes") if "attrs" in s]
    m["multiplex.drop_isolated_nodes.kept_frac"] = _ratio(sum(a["kept"] for a in drops),
                                                         sum(a["n"] for a in drops))
    m["multiplex.parse_multiplex.lines_per_s"] = _ratio(
        multiplex_lines, m["multiplex.parse_multiplex.busy_s"]) if multiplex_lines else 0.0

    m["clustering.self_s"] = tree.layer_self("clustering", exclude=("clustering.kmeans",))
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = tree.layer_self(layer)
    m["experiments.run_experiment.self_s"] = tree.layer_self(
        "experiments", exclude=("experiments.fair_sc_baseline",))
    m["experiments.setup_share"] = _ratio(sum(tree.busy(n) for n in SETUP_FUNCTIONS),
                                          tree.task_busy())
    m["experiments.parallel_efficiency"] = _ratio(serial_task_busy_s, workers * sweep_s)
    m["trace.overhead_frac"] = _ratio(traced_sweep_s - sweep_s, sweep_s)
    return m
