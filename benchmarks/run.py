"""Run one benchmark workload against the source tree and print its metrics.

    python3 benchmarks/run.py --workload survey-x5 --seed 1 --seconds 30 --trace 0

Passes of the workload run back to back, in this process, with ``jobs=1``:
one untimed warm-up pass, then timed passes until ``--seconds`` of timed
work are done; each pass's outputs are checked after it, outside the timed
region.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
passes alternate untraced and traced and the metrics are the per-layer ones
(see layers.py).  A record of the run, stamped with the Python version, CPU
count, platform and code identity, goes to ``.bench_out/``, and with
``--trace 1`` so do the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import env
import tracing
from speed import SpeedProbe

SETUP_RUNS = 7
# Set-up as a user pays it: import, reference-table load, case list.  The
# interpreter's speed is sampled around it, as for passes (see speed.py).
SETUP_CODE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
import speed
samples = [speed.calibrate() for _ in range(15)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from qderiv import cli, survey
survey.embedded_paper_table()
survey.all_cases()
elapsed = time.perf_counter() - t0
samples += [speed.calibrate() for _ in range(15)]
print(elapsed, elapsed * speed.REFERENCE_S / statistics.fmean(samples))
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def setup_seconds() -> tuple[list[float], list[float]]:
    """Raw and reference-speed set-up times of fresh interpreters, each waited for."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(env.ROOT / "benchmarks"), str(env.SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        r, s = map(float, done.stdout.split())
        raw.append(r)
        scaled.append(s)
    return raw, scaled


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def verdict_ms(passes: list[list[float]]) -> tuple[float, float]:
    """Median and 90th-percentile time to a verdict, in ms, from request seconds per pass.

    With many requests per pass, the percentiles of each pass are taken and
    their median over the passes is reported, so a slow spell on the host
    that lands in one pass does not move the tail.  With one request per
    pass, the percentiles are over the passes.
    """
    if all(len(p) == 1 for p in passes):
        times = [p[0] * 1e3 for p in passes]
        return statistics.median(times), p90(times)
    return (
        statistics.median(statistics.median(p) for p in passes) * 1e3,
        statistics.median(p90(p) for p in passes) * 1e3,
    )


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run a warm-up pass, then passes until ``seconds`` of timed work.

    Every pass is checked after it, the warm-up too, but the warm-up is not
    timed.  Pass and request times are kept raw, each with its pass's speed
    factor.  With a tracer, the timed passes alternate untraced and traced,
    so each traced pass is paired with the untraced pass before it and drift
    on a shared machine affects both alike.
    """
    passes = {False: [], True: []}  # traced? -> raw pass seconds
    factors = {False: [], True: []}  # traced? -> speed factor of each pass
    latencies = []  # per untraced pass, its raw request seconds
    op_scale: dict[int, float] = {}  # traced op id -> its pass's speed factor
    attempted = failed = 0
    failures: list[str] = []
    timed = 0.0
    index = -1  # the warm-up pass
    while index < 0 or timed < seconds or (tracer is not None and not passes[True]):
        traced = tracer is not None and index >= 0 and index % 2 == 1
        requests = workload.next_pass()
        results = []
        first_op = tracer.ops if traced else 0
        gc.collect()
        patched = tracer.patched() if traced else contextlib.nullcontext()
        with SpeedProbe(tracer.steal if traced else None) as probe, patched:
            start = perf_counter()
            for request in requests:
                t0, stolen = perf_counter(), probe.stolen()
                with tracer.op() if traced else contextlib.nullcontext():
                    attempt = _attempt(workload, request)
                results.append(attempt + (perf_counter() - t0 - probe.stolen() + stolen,))
            elapsed = perf_counter() - start - probe.stolen()
        factor = probe.factor()
        if index >= 0:
            timed += elapsed
            passes[traced].append(elapsed)
            factors[traced].append(factor)
            if traced:
                op_scale.update(dict.fromkeys(range(first_op + 1, tracer.ops + 1), factor))
            else:
                latencies.append([latency for _output, _error, latency in results])
        index += 1
        for request, (output, error, _latency) in zip(requests, results):
            attempted += 1
            reason = error or _check(workload, request, output)
            if reason:
                failed += 1
                failures.append(reason)
    scaled = {k: [p * f for p, f in zip(passes[k], factors[k])] for k in passes}
    return {
        "untraced": scaled[False],
        "traced": scaled[True],
        "raw": passes,
        "factors": factors,
        "op_scale": op_scale,
        "latencies": [[x * f for x in p] for p, f in zip(latencies, factors[False])],
        "raw_latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def _attempt(workload, request) -> tuple:
    try:
        return workload.run(request), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"raised {exc!r}"


def _check(workload, request, output) -> str | None:
    try:
        return workload.check(request, output)
    except Exception as exc:  # a malformed output is a failed operation
        return f"check raised {exc!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env.use_source_tree()
    except env.SourceTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_raw, setup_scaled = setup_seconds()

    import layers
    from workloads import WORKLOADS, load_expected

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, load_expected())
    tracer = layers.make_tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)

    if tracer is None:
        p50_ms, p90_ms = verdict_ms(run["latencies"])
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": statistics.median(run["untraced"]),
            "verdict_p50_ms": p50_ms,
            "verdict_p90_ms": p90_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        with SpeedProbe() as probe:
            call_s, row_s = tracing.unit_costs()
        values = layers.metrics(
            tracer,
            run["op_scale"],
            run["traced"],
            run["untraced"],
            (call_s * probe.factor(), row_s * probe.factor()),
        )
        units = layers.METRICS
    raw_p50_ms, raw_p90_ms = verdict_ms(run["raw_latencies"])
    raw = {  # the same figures before scaling to reference speed
        "setup_s": statistics.median(setup_raw),
        "wall_s": statistics.median(run["raw"][False]),
        "verdict_p50_ms": raw_p50_ms,
        "verdict_p90_ms": raw_p90_ms,
        "setup_factor": statistics.median(s / r for s, r in zip(setup_scaled, setup_raw)),
        "pass_factor": statistics.median(run["factors"][False]),
    }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "stamp": env.stamp(),
        "args": vars(args),
        "passes": {"untraced": run["untraced"], "traced": run["traced"]},
        "raw_passes": {"untraced": run["raw"][False], "traced": run["raw"][True]},
        "pass_factors": {"untraced": run["factors"][False], "traced": run["factors"][True]},
        "raw": raw,
        "setup": {"raw": setup_raw, "reference_speed": setup_scaled},
        "requests": sum(map(len, run["latencies"])),
        "error_rate": run["failed"] / run["attempted"],
        "failures": run["failures"][:20],
        "result": result,
    }
    env.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (env.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(env.OUT / f"{stem}.spans.jsonl.gz")

    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print(
        f"{args.workload}: {len(run['untraced'])} untraced and {len(run['traced'])} traced"
        f" passes, {record['requests']} timed requests"
    )
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {record['error_rate']:.6g} failed/attempted")
    for reason in record["failures"][:5]:
        print(f"  failure: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
