"""Self-tests of the benchmark: tracer coverage, span arithmetic, worker
spans, output checks and the metric names BENCHMARK.json promises.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import multiplex_gen
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _span(span_id, name, start, end, parent=None, pid=1, **attrs):
    span = {"id": span_id, "parent": parent, "task": span_id, "name": name,
            "start": start, "end": end, "pid": pid, "ok": True}
    if attrs:
        span["attrs"] = attrs
    return span


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    """A package whose modules import each other's functions by name and
    keep one in a registry dict, as later repsc modules may."""
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .low import base\nfrom .high import top\n")
    (pkg / "low.py").write_text(textwrap.dedent("""
        import functools

        def base(x):
            return x + 1

        @functools.lru_cache(maxsize=4)
        def cached(x):
            return base(x) * 2
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import base, cached

        REGISTRY = {"base": base}

        def top(x):
            return REGISTRY["base"](x) + cached(x)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "toypkg"
    for name in [n for n in sys.modules if n == "toypkg" or n.startswith("toypkg.")]:
        del sys.modules[name]


def test_install_wraps_every_binding_of_a_package_function(toy_package, tmp_path):
    assert tracer.untraced_bindings(toy_package)
    trace = tracer.Tracer(tmp_path / "trace", package=toy_package)
    assert trace.install() == 3
    assert tracer.untraced_bindings(toy_package) == []

    import toypkg.high

    assert toypkg.high.top(1) == 6
    by_name = {}
    for span in trace.spans:
        by_name.setdefault(span["name"], []).append(span)
    (top,) = by_name["high.top"]
    assert {s["parent"] for s in by_name["low.base"]} == {top["id"], by_name["low.cached"][0]["id"]}
    assert by_name["low.cached"][0]["parent"] == top["id"]
    assert all(s["task"] == top["id"] for s in trace.spans)


def test_install_leaves_no_repsc_function_unwrapped(tmp_path):
    code = ("import sys, tracer; t = tracer.Tracer(sys.argv[1]); n = t.install(); "
            "print(n, tracer.untraced_bindings('repsc'))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=HERE, check=True,
                         capture_output=True, text=True, env=_env()).stdout.split(maxsplit=1)
    assert int(out[0]) > 50
    assert out[1].strip() == "[]"


def test_self_time_and_busy_time_on_a_hand_built_tree():
    spans = [
        _span("r", "experiments.run_experiment", 0, 100),
        _span("a", "clustering.urepsc", 10, 40, parent="r"),
        _span("a1", "clustering.constraint_null_basis", 15, 20, parent="a"),
        _span("a2", "clustering.kmeans", 20, 30, parent="a"),
        _span("a21", "clustering._lloyd", 22, 28, parent="a2"),
        _span("b", "clustering.urepsc", 40, 45, parent="r"),
        # A worker's top-level span, attached to r by containment.
        _span("w", "experiments._execute_task", 50, 90, pid=2),
        _span("w1", "linalg.sym_eig", 60, 70, parent="w", pid=2, n=10),
        _span("w2", "linalg.sym_eig", 62, 66, parent="w1", pid=2, n=3),
    ]
    tree = tracer.SpanTree(spans, main_pid=1)
    second = 1e9
    assert tree.spans["w"]["parent"] == "r"
    assert tree.self_time(tree.spans["r"]) * second == pytest.approx(100 - 30 - 5 - 40)
    assert tree.self_time(tree.spans["a"]) * second == pytest.approx(30 - 5 - 10)
    assert tree.self_time(tree.spans["w1"]) * second == pytest.approx(10 - 4)
    # Nested calls of one function count once.
    assert tree.busy("linalg.sym_eig") * second == pytest.approx(10)
    assert tree.busy("clustering.urepsc") * second == pytest.approx(35)
    # clustering.self_s leaves out the k-means subtree.
    assert tree.layer_self("clustering", exclude=("clustering.kmeans",)) * second == \
        pytest.approx((30 - 5 - 10) + 5 + 5)
    assert tree.layer_self("clustering") * second == pytest.approx(15 + 5 + 5 + 4 + 6)
    assert tree.task_busy() * second == pytest.approx(30 + 5 + 40)
    metrics = tracer.analyse(tree, sweep_s=100e-9, traced_sweep_s=110e-9, workers=2,
                             serial_task_busy_s=150e-9, multiplex_lines=0)
    assert metrics["linalg.sym_eig.dim3_sum"] == 10 ** 3 + 3 ** 3
    assert metrics["experiments.parallel_efficiency"] == pytest.approx(0.75)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)


def test_analyse_reports_exactly_the_declared_per_layer_metrics():
    metrics = tracer.analyse(tracer.SpanTree([], main_pid=1), sweep_s=1.0, traced_sweep_s=1.0,
                             workers=1, serial_task_busy_s=0.0, multiplex_lines=0)
    assert set(metrics) == set(workloads.PER_LAYER)


def test_benchmark_json_names_the_metrics_and_workloads_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in workloads.UNLISTED]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == workloads.PER_LAYER


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_spans_reach_the_trace(tmp_path, threads):
    config = tmp_path / "config.txt"
    config.write_text("mode = d_regular_sweep\nalgorithms = usc, urepsc\nn_values = 60\n"
                      f"k_values = 2\nd_values = 4\ntrials = 2\nthreads = {threads}\n")
    trace_dir = tmp_path / "trace"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "sweep", str(config), "3",
         str(tmp_path / "out"), str(trace_dir)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    tree = tracer.SpanTree(tracer.load_spans(trace_dir), result["main_pid"])
    tasks = tree.named("experiments._execute_task")
    assert len(tasks) == 4
    assert 1 <= len({s["pid"] for s in tasks}) <= threads
    (entry,) = tree.named(tracer.ENTRY)
    assert all(s["parent"] == entry["id"] for s in tasks)
    assert tree.task_busy() > 0.0
    if threads == 1:
        assert all(s["pid"] == result["main_pid"] for s in tasks)
    else:
        assert all(s["pid"] != result["main_pid"] for s in tasks)


def test_spawned_workers_install_the_tracer_from_the_environment(tmp_path):
    # A worker started with spawn or forkserver imports child.py as __mp_main__.
    code = ("import runpy, numpy; runpy.run_path('child.py', run_name='__mp_main__'); "
            "import repsc.clustering; repsc.clustering.usc(numpy.ones((4, 4)), 2)")
    env = dict(_env(), **{tracer.TRACE_DIR_ENV: str(tmp_path)})
    subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, check=True, timeout=120)
    names = {s["name"] for s in tracer.load_spans(tmp_path)}
    assert {"clustering.usc", "linalg.sym_eig", "clustering.kmeans"} <= names


def _row(algorithm, accuracy="1.0", residual="0.0", error=""):
    return {"algorithm": algorithm, "N": "600", "K": "5", "d": "40", "trial": "0",
            "accuracy_nodes": accuracy, "max_representation_residual": residual,
            "error": error, "runtime_ms": "1.0", "avg_balance": "1.0", "rcut": "2.0"}


def test_output_checks():
    workload = workloads.WORKLOADS["dregular_sweep"]
    good = [_row("usc", "0.3", "0.9"), _row("nsc", "0.7", "0.1"), _row("urepsc"), _row("nrepsc")] * 2
    assert workloads.check_rows(workload, good) == []
    assert workloads.check_rows(workload, good[:-1])
    failed = good[:-1] + [_row("nrepsc", error="ValueError: x")]
    assert any("ValueError" in p for p in workloads.check_rows(workload, failed))
    inexact = good[:-1] + [_row("nrepsc", accuracy="0.99")]
    assert any("not 1.0" in p for p in workloads.check_rows(workload, inexact))
    dominated = [_row("usc", "0.3", "0.1"), _row("nsc", "0.7", "0.1"),
                 _row("urepsc", residual="0.5"), _row("nrepsc")] * 2
    assert any("residual" in p for p in workloads.check_rows(workload, dominated))
    assert workloads.stripped(good) == workloads.stripped(
        [dict(r, runtime_ms="9.0") for r in good])


def test_multiplex_generator_is_seeded_and_parses(tmp_path):
    shape = multiplex_gen.MultiplexShape(nodes=60, out_edges=3, isolated=4)
    text, communities = multiplex_gen.generate(5, shape)
    assert multiplex_gen.generate(5, shape)[0] == text
    assert multiplex_gen.generate(6, shape)[0] != text
    path = tmp_path / "net.txt"
    lines = multiplex_gen.write(path, 5, shape)
    assert path.read_text() == text and lines == len(text.splitlines()) - 1
    import repsc

    net = repsc.parse_multiplex(path)
    assert net.layer_ids == tuple(range(1, 61))
    assert communities.shape == (60,)
