"""Run the benchmark over several seeds and write one trajectory point.

    python3 benchmarks/trajectory.py --runs 10 --out benchmarks/trajectory/BENCH_<sha>.json

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed (seeds 1..runs, workloads interleaved so that drift on a shared
machine affects them alike) and, with ``--traced``, one ``--trace 1`` run
on seed 1.  For each end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile range as a share of the median, next to the metric's bound.
Beside them it keeps each run's raw figures before scaling to reference
speed and the speed factors, from the run records.  With ``--traced`` it
compares the traced run's layer times plus glue with the median untraced
``wall_s`` of the independent runs (``trace_check``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys

import env

RUN = str(env.ROOT / "benchmarks" / "run.py")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and the full record it wrote to ``.bench_out/``."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True, cwd=env.ROOT,
    )
    record = env.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))

    results: dict[str, list[dict]] = {n: [] for n in names}
    records: dict[str, list[dict]] = {n: [] for n in names}
    for seed in seeds:
        for name in names:
            result, record = run_once(name, seed, seconds, 0)
            results[name].append(result)
            records[name].append(record)
            print(f"{name} seed {seed}: {result['metrics']}", file=sys.stderr)

    point = {
        "stamp": env.stamp(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = results[name]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                metric: summarize([r["metrics"][metric]["value"] for r in runs], bound)
                for metric, bound in bounds.items()
            },
        }
        entry["raw"] = {}
        for key in records[name][0]["raw"]:
            values = [r["raw"][key] for r in records[name]]
            entry["raw"][key] = {"median": statistics.median(values), "values": values}
        if args.traced:
            traced, _record = run_once(name, seeds[0], seconds, 1)
            layer = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["per_layer"] = layer
            wall = entry["end_to_end"]["wall_s"]
            accounted = layer["trace.layers_s"] + layer["bench.glue_s"]
            entry["trace_check"] = {
                "layers_plus_glue_s": accounted,
                "untraced_wall_median_s": wall["median"],
                "untraced_wall_iqr_s": wall["q3"] - wall["q1"],
                "difference_s": accounted - wall["median"],
                "overhead_s": layer["trace.overhead_s"],
                "span_cost_s": layer["trace.span_cost_s"],
            }
        point["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (spread above bound/3)"
            print(
                f"{name:11s} {metric:15s} median {s['median']:.6g}"
                f"  spread {s['spread']:.3f}  bound {s['bound']}{flag}"
            )
        if "trace_check" in entry:
            print(f"{name:11s} trace check " + json.dumps(entry["trace_check"]))
    out = env.ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
