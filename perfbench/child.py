"""One measurement in a fresh process; prints its result as a JSON line.

    python3 perfbench/child.py setup CONFIG
        Times ``import repsc`` plus the config's one-time preparation through
        public functions.
    python3 perfbench/child.py sweep CONFIG SEED OUT [TRACE_DIR]
        Imports repsc, then times one ``repsc run`` call writing to OUT. With
        TRACE_DIR, the tracer is installed first and the spans are written
        there.

Run with ``src`` on PYTHONPATH. Worker processes started with the spawn or
forkserver method import this file as ``__mp_main__``; the tracer is then
installed from the environment so their spans are recorded too.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def setup(config: str) -> dict:
    import repsc
    from repsc import graphs, multiplex, theory

    cfg = repsc.load_config(config)
    if cfg.mode == "d_regular_sweep":
        for n in cfg.n_values:
            for k in cfg.k_values:
                for d in cfg.d_values:
                    rep, truth = graphs.build_d_regular_rep_graph(n, k, d)
                    params = graphs.RppParams(assignment=truth, rep_graph=rep,
                                              p=cfg.p, q=cfg.q, r=cfg.r, s=cfg.s)
                    spectrum = theory.expected_spectrum(params)
                    theory.misclustering_bound_shape(params, cfg.epsilon, spectrum=spectrum)
    elif cfg.mode == "real_network":
        net = multiplex.parse_multiplex(Path(cfg.multiplex_file), index_base=cfg.index_base)
        parts = {}
        for label, (lo, hi) in (("rep", cfg.rep_layers), ("sim", cfg.sim_layers)):
            positions = multiplex.layer_positions_for_id_range(net, lo, hi)
            parts[label] = [multiplex.knn_layer_graph(net, t, cfg.knn_k) for t in positions]
        rep = multiplex.aggregate_layers(parts["rep"], force_diagonal=True)
        sim = multiplex.aggregate_layers(parts["sim"], force_diagonal=False)
        if cfg.drop_isolated:
            multiplex.drop_isolated_nodes(sim, rep)
    # planted_partition_sweep resamples every input per trial: no one-time work.
    return {"setup_s": time.perf_counter() - _STARTED, "peak_rss_mb": _peak_rss_mb()}


def sweep(config: str, seed: str, out: str, trace_dir: str | None) -> dict:
    import repsc.cli

    tracer = None
    if trace_dir:
        import tracer as tracing

        os.environ[tracing.TRACE_DIR_ENV] = trace_dir
        tracer = tracing.Tracer(trace_dir)
        tracer.install()
    start = time.perf_counter()
    code = repsc.cli.main(["run", "--config", config, "--seed", seed, "--out", out])
    elapsed = time.perf_counter() - start
    result = {"sweep_s": elapsed, "exit_code": code, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.flush()
        result["main_pid"] = os.getpid()
    return result


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        result = setup(argv[1])
    elif len(argv) in (4, 5) and argv[0] == "sweep":
        result = sweep(*argv[1:4], argv[4] if len(argv) == 5 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__":
    import tracer as _tracing

    _tracing.install_from_env()
