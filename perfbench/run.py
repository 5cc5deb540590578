"""Benchmark of the repsc sweep harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repsc checkout. Each measurement is a fresh Python
process (``perfbench/child.py``) with ``src`` on its path, so the program's
in-process setup caches never carry over from one measurement to the next.

With ``--trace 0`` the run times the workload's one-time setup three times
and then repeats the sweep while the repeats fit in S seconds (at least
twice), and reports the end-to-end metrics as medians. With ``--trace 1`` it
runs the sweep once untraced and once traced and reports the per-layer
metrics. Every sweep's output is checked; the last line of standard output
is the JSON result, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import multiplex_gen
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_SWEEPS = 2
RUN_LIMIT_S = 170.0
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Machine and library facts a result depends on."""
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: {"name": build[key].get("name"), "version": build[key].get("version")}
                for key in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = {"blas": None, "lapack": None}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas,
        "start_method": multiprocessing.get_start_method(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def _stop_group(pgid: int) -> None:
    """Kill what is left of a measurement's process group (pool workers of a
    failed sweep) and wait, briefly, until none of it remains."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    """Starts the measurement processes of one run and keeps its deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def child(self, *args: str) -> tuple[dict | None, float, str]:
        """Run ``child.py ARGS`` in its own process group; return its JSON
        result (None on failure), its wall time and its error output."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args], cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _stop_group(proc.pid)
            out, err = proc.communicate()
            err += "\nkilled: the run's time limit was reached"
        finally:
            _stop_group(proc.pid)
        wall = time.perf_counter() - start
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, wall, err
        try:
            return json.loads(lines[-1]), wall, err
        except json.JSONDecodeError:
            return None, wall, err

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


class Ledger:
    """Rows attempted and failed, and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sweep(self, workload, label: str, result: dict | None, out_dir: Path, err: str):
        """Account for one sweep; return its rows when they are usable."""
        self.attempted += workload.rows
        problems = []
        rows = None
        if result is None:
            problems.append(f"sweep crashed: {err.strip()[-400:]}")
        elif result["exit_code"] != 0:
            problems.append(f"repsc run exited with {result['exit_code']}")
        try:
            rows = workloads.read_rows(out_dir / "results.csv")
        except OSError as exc:
            problems.append(f"no results.csv: {exc}")
        if rows is not None:
            problems.extend(workloads.check_rows(workload, rows))
        if problems:
            self.fail(workload, label, problems)
            return None
        return rows

    def fail(self, workload, label: str, problems: list[str]):
        self.problems.extend(f"{label}: {p}" for p in problems)
        self.failed = min(self.attempted, self.failed + workload.rows)


def prepare(workload, seed: int, work: Path) -> tuple[Path, Path | None, int]:
    """Write the workload's config (and a one-worker twin when it has a
    reference) and any generated input; return the paths and the number of
    multiplex lines."""
    lines = 0
    values = {}
    if workload.multiplex:
        shape = multiplex_gen.MultiplexShape()
        cache = work.parent.parent / "inputs"
        cache.mkdir(parents=True, exist_ok=True)
        path = cache / f"multiplex-seed{seed}.txt"
        lines = multiplex_gen.write(path, seed, shape)
        values = {"multiplex_file": str(path), "rep_range": shape.rep_range,
                  "sim_range": shape.sim_range}
    text = workload.config.format(**values)
    config = work / "config.txt"
    config.write_text(text)
    reference = None
    if workload.one_worker_reference:
        reference = work / "config-1w.txt"
        reference.write_text(text.replace(f"threads = {workload.workers}", "threads = 1"))
    return config, reference, lines


def measure(workload, seed: int, seconds: int, runner: Runner, work: Path,
            config: Path, reference: Path | None, ledger: Ledger) -> tuple[dict, dict]:
    """Untraced run: setup and sweep timings, quality of the outputs."""
    setups = []
    for _ in range(SETUP_REPEATS):
        result, _, err = runner.child("setup", str(config))
        if result is None:
            ledger.problems.append(f"setup failed: {err.strip()[-400:]}")
            break
        setups.append(result["setup_s"])

    sweeps, walls, rss, outputs = [], [], [], []
    while True:
        out = work / f"sweep-{len(sweeps)}"
        result, wall, err = runner.child("sweep", str(config), str(seed), str(out))
        rows = ledger.sweep(workload, out.name, result, out, err)
        if result is not None:
            sweeps.append(result["sweep_s"])
            rss.append(result["peak_rss_mb"])
        walls.append(wall)
        if rows is not None:
            outputs.append(rows)
        estimate = statistics.mean(walls)
        if rows is None or runner.time_left() < 3 * estimate or (
                len(walls) >= MIN_SWEEPS and sum(walls) + estimate > seconds):
            break
    if any(workloads.stripped(rows) != workloads.stripped(outputs[0]) for rows in outputs[1:]):
        ledger.fail(workload, "repeats", ["repeated sweeps wrote different results"])

    if reference is not None and outputs:
        out = work / "sweep-1w"
        result, _, err = runner.child("sweep", str(reference), str(seed), str(out))
        rows = ledger.sweep(workload, out.name, result, out, err)
        if rows is not None and workloads.stripped(rows) != workloads.stripped(outputs[0]):
            ledger.fail(workload, out.name, ["results differ from the one-worker run"])

    metrics, samples = {}, {"setup_s": setups, "sweep_s": sweeps, "peak_rss_mb": rss}
    if setups and sweeps and outputs:
        metrics = {"sweep_s": statistics.median(sweeps), "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(rss), **workloads.quality(outputs[0])}
    return metrics, samples


def measure_traced(workload, seed: int, runner: Runner, work: Path, config: Path,
                   reference: Path | None, lines: int, ledger: Ledger) -> tuple[dict, dict]:
    """Traced run: one untraced and one traced sweep, per-layer metrics."""
    out = work / "sweep-untraced"
    plain, _, err = runner.child("sweep", str(config), str(seed), str(out))
    plain_rows = ledger.sweep(workload, out.name, plain, out, err)

    def traced(cfg: Path, label: str):
        out_dir, trace_dir = work / f"sweep-{label}", work / f"trace-{label}"
        result, _, err = runner.child("sweep", str(cfg), str(seed), str(out_dir), str(trace_dir))
        rows = ledger.sweep(workload, out_dir.name, result, out_dir, err)
        if result is None:
            return None, None, None
        return result, rows, tracer.SpanTree(tracer.load_spans(trace_dir), result["main_pid"])

    result, rows, tree = traced(config, "traced")
    serial = tree
    if reference is not None:
        _, serial_rows, serial = traced(reference, "traced-1w")
        if rows is not None and serial_rows is not None and \
                workloads.stripped(rows) != workloads.stripped(serial_rows):
            ledger.fail(workload, "sweep-traced", ["results differ from the one-worker run"])
    if rows is not None and plain_rows is not None and \
            workloads.stripped(rows) != workloads.stripped(plain_rows):
        ledger.fail(workload, "sweep-traced", ["tracing changed the results"])
    if plain is None or tree is None or serial is None:
        return {}, {}
    metrics = tracer.analyse(tree, sweep_s=plain["sweep_s"], traced_sweep_s=result["sweep_s"],
                             workers=workload.workers, serial_task_busy_s=serial.task_busy(),
                             multiplex_lines=lines)
    return metrics, {"sweep_s": plain["sweep_s"], "traced_sweep_s": result["sweep_s"],
                     "spans": len(tree.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repsc" / "__init__.py").is_file():
        print(f"error: {root} holds no repsc source tree (src/repsc); run from a checkout's root",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    config, reference, lines = prepare(workload, args.seed, work)
    runner = Runner(root, started + RUN_LIMIT_S)
    ledger = Ledger()
    if args.trace:
        metrics, samples = measure_traced(workload, args.seed, runner, work, config,
                                          reference, lines, ledger)
        units = {name: unit for name, (unit, _) in workloads.PER_LAYER.items()}
    else:
        metrics, samples = measure(workload, args.seed, args.seconds, runner, work, config,
                                   reference, ledger)
        units = workloads.END_TO_END
    finite = {name: value for name, value in metrics.items() if math.isfinite(value)}
    report = {name: {"value": finite[name], "unit": unit} for name, unit in units.items()
              if name in finite}
    missing = [name for name in units if name not in report]
    if missing:
        ledger.problems.append(f"metrics not measured: {', '.join(missing)}")
        ledger.failed = max(ledger.failed, 1)
    correct = not ledger.problems
    finite["failed_frac"] = ledger.failed / max(1, ledger.attempted)
    summary_only = {name: {"value": finite.get(name), "unit": unit}
                    for name, unit in workloads.SUMMARY_ONLY.items() if not args.trace}
    (work / "result.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
         "samples": samples, "problems": ledger.problems, "metrics": report,
         "summary_only": summary_only}, indent=1))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env))
    for problem in ledger.problems:
        print(f"FAIL {problem}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, entry in summary_only.items():
        print(f"{name} = {entry['value']} {entry['unit']} (summary only)")
    print(json.dumps({"correct": correct, "attempted": max(1, ledger.attempted),
                      "failed": ledger.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
