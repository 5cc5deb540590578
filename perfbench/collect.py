"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace-seed N]
                                 [--out FILE]

Run from the root of a repsc checkout. For each workload it makes one
untraced run per seed (and, with ``--trace-seed``, one traced run), then
prints and optionally writes the median, the quartiles and the spread
(interquartile distance over median) of every end-to-end and summary-only
metric. Seeds are run in rotating workload order so that slow drift on the
machine spreads evenly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the benchmark once; return its ``result.json`` plus whether it
    was correct."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    path = Path(".bench_work") / workload / f"seed{seed}-trace{trace}" / "result.json"
    result = json.loads(path.read_text()) if path.is_file() else {"metrics": {}, "env": None}
    result["correct"] = proc.returncode == 0
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for index, seed in enumerate(args.seeds):
        for name in names[index % len(names):] + names[:index % len(names)]:
            result = run_once(name, seed, args.seconds, 0)
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"env": runs[names[0]][0]["env"], "run_seconds": args.seconds}
    for name in names:
        metrics = {}
        for key in ("metrics", "summary_only"):
            for metric in runs[name][0].get(key, {}):
                values = [r[key][metric]["value"] for r in runs[name]
                          if r.get(key, {}).get(metric, {}).get("value") is not None]
                if values:
                    metrics[metric] = {"unit": runs[name][0][key][metric]["unit"],
                                       **summarise(values)}
        summary[name] = {
            "seeds": args.seeds,
            "correct_runs": sum(1 for r in runs[name] if r["correct"]),
            "end_to_end": metrics,
        }
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, args.seconds, 1)
            summary[name]["per_layer"] = {
                "seed": args.trace_seed, "correct": traced["correct"],
                **{k: v["value"] for k, v in traced["metrics"].items()}}
    for name in names:
        for metric, stats in summary[name]["end_to_end"].items():
            spread = "-" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"{name:18s} {metric:13s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(summary[n]["correct_runs"] == len(args.seeds) for n in names) else 1


if __name__ == "__main__":
    sys.exit(main())
