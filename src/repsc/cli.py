"""Command-line entry points.

Three subcommands: ``run`` executes a config-driven sweep, ``check-expected``
verifies exact recovery on expected-case inputs, and ``ingest`` reduces a
multiplex edge list to the two working graphs. Exit codes: 0 on full
success, 1 when a sweep finished but some runs failed (or an expected-case
check failed), 2 on a fatal problem such as a bad config.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import RepscError
from .experiments import (
    check_expected,
    ingest_to_dir,
    load_config,
    parse_layer_range,
    run_experiment,
)
from .graphs import _parse_int


def _integer(text: str) -> int:
    """An integer option: ASCII decimal digits with an optional sign, as in
    the config file and every input format."""
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repsc",
        description="Representation-aware spectral clustering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a config-driven sweep")
    run_parser.add_argument("--config", required=True, help="path to the config file")
    run_parser.add_argument("--out", help="output directory (overrides the config)")
    run_parser.add_argument("--threads", type=_integer,
                            help="worker processes (overrides the config)")
    run_parser.add_argument("--seed", type=_integer, dest="base_seed",
                            help="base seed (overrides the config)")
    run_parser.add_argument("--plots", action="store_true",
                            help="also write SVG line charts")

    check_parser = sub.add_parser(
        "check-expected",
        help="cluster expected-case inputs and verify exact recovery",
    )
    check_parser.add_argument("--config", required=True)
    check_parser.add_argument("--out", help="output directory (overrides the config)")
    check_parser.add_argument("--threads", type=_integer)

    ingest_parser = sub.add_parser(
        "ingest", help="reduce a multiplex edge list to two graphs"
    )
    ingest_parser.add_argument("--multiplex", required=True, help="multiplex edge-list file")
    ingest_parser.add_argument("--rep-layers", required=True,
                               help="inclusive layer range a..b for the representation graph")
    ingest_parser.add_argument("--sim-layers", required=True,
                               help="inclusive layer range a..b for the similarity graph")
    ingest_parser.add_argument("--knn", type=_integer, default=5,
                               help="neighbors kept per node and layer (default 5)")
    ingest_parser.add_argument("--out", required=True, help="output directory")
    ingest_parser.add_argument("--names", dest="names_file",
                               help="node-name sidecar file, one name per line")
    ingest_parser.add_argument("--index-base", type=_integer, default=0,
                               help="subtract this from node indices in the file (default 0)")
    ingest_parser.add_argument("--keep-isolated", action="store_true",
                               help="keep nodes isolated in either graph instead of dropping them")
    return parser


def _apply_overrides(cfg, args):
    updates = {}
    if getattr(args, "out", None):
        updates["out"] = args.out
    if getattr(args, "threads", None) is not None:
        updates["threads"] = args.threads
    if getattr(args, "base_seed", None) is not None:
        updates["base_seed"] = args.base_seed
    if getattr(args, "plots", False):
        updates["plots"] = True
    return replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(load_config(args.config), args)
            result = run_experiment(cfg)
            print(f"wrote {result.results_path} ({len(result.rows)} rows, "
                  f"{result.error_count} errors)")
            print(f"wrote {result.aggregate_path}")
            for path in result.plot_paths:
                print(f"wrote {path}")
            return 0 if result.error_count == 0 else 1
        if args.command == "check-expected":
            cfg = _apply_overrides(load_config(args.config), args)
            lines, ok = check_expected(cfg)
            for line in lines:
                print(line)
            print("expected-case check:", "PASS" if ok else "FAIL")
            return 0 if ok else 1
        if args.command == "ingest":
            paths = ingest_to_dir(
                args.multiplex,
                parse_layer_range(args.rep_layers),
                parse_layer_range(args.sim_layers),
                args.knn,
                args.out,
                index_base=args.index_base,
                drop_isolated=not args.keep_isolated,
                names_file=args.names_file,
            )
            for name, path in paths.items():
                print(f"wrote {name}: {path}")
            return 0
    except (RepscError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
