"""The repository benchmark: served read/write paths and direct kernels.

Usage (from the repository root)::

    python3 perfbench/run.py --workload served-hit --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``served-hit``, ``served-mutate``,
``direct-coloring``, ``direct-general``; ``--workload all`` runs the four
in turn.  Every input derives from ``--seed`` (but the mixing jobs' seed;
see ``workloads.py``).

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  The benchmark and every process it starts run on one core, and
each timing is scaled by a reference chunk timed on that core just before
and after it (``HostSpeed`` in ``harness.py``): the vCPUs of a shared VM
change speed by about 1.5x for seconds at a time, which spread raw wall
times by up to 2x between runs of the same code.  The raw wall figures
are printed beside the metrics (``wall_*``).

* ``setup_s`` — median over ``SETUPS`` set-ups of the time until the first
  timed op can be sent: model build, server start and health check (served
  workloads), one untimed warm-up op;
* ``ops_per_s`` — ops completed per second of closed-loop op time (a
  served op is one request, a direct op one pass over the job list);
* ``latency_p50_ms`` — median op latency (sample count printed beside it);
* ``peak_rss_mb`` — peak resident memory of the system under test (server
  plus workers for served workloads, this process for direct ones) over
  the set-ups and the first timed op, so it does not depend on how many
  ops fit in the run.

The served workloads also print ``health_slow_share``, the share of
``GET /v1/health`` probes (open loop, 10/s) slower than 50 ms, and every
workload prints ``fail_ratio`` (= failed / attempted).  Neither is a
gated metric: both read 0 on a healthy or fast enough program.

``--trace 1`` runs the workload for half the run length untraced and
again traced (their ``ops_per_s`` ratio is ``trace.overhead_ratio``), then
the traced layer sweep of ``layers.py`` (at n=4096, not the workloads'
n=256), and reports every per-layer metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
``src/repro`` package beside this directory the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback
from time import perf_counter

from harness import OUT, HostSpeed, environment, import_repro, pin_to_one_core

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Reference chunks timed before and after each set-up (their median is used).
SETUP_CHUNKS = 3
WORKLOAD_NAMES = ("served-hit", "served-mutate", "direct-coloring", "direct-general")
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def measure(name: str, seed: int, seconds: float, setups: int, trace_file=None):
    """Set up ``setups`` times, then run the closed loop for ``seconds``.

    Returns ``(metrics, outcome, notes)``; ``notes`` are the unmetered
    figures printed beside the metrics.
    """
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[name](seed)
    outcome = Outcome()
    host = HostSpeed()
    setup_times, setup_scaled = [], []
    latencies, scaled = [], []
    try:
        for index in range(setups):
            if index:
                workload.close()
            before = host.median_chunk(SETUP_CHUNKS)
            start = perf_counter()
            workload.setup(trace_file)
            setup_times.append(perf_counter() - start)
            after = host.median_chunk(SETUP_CHUNKS)
            setup_scaled.append(host.scale(setup_times[-1], before, after))
        if workload.served:
            workload.start_probes()
        loop_start = perf_counter()
        before = host.time_chunk()
        while True:
            index = outcome.attempted
            outcome.attempted += 1
            start = perf_counter()
            try:
                workload.op()
            except Exception:  # a failed op is counted, and the loop goes on
                traceback.print_exc()
                outcome.fail(index, "op raised")
                latency = None
            else:
                latency = perf_counter() - start
            if index == 0:
                rss = workload.peak_rss_mb()
            after = host.time_chunk()
            if latency is not None:
                latencies.append(latency)
                scaled.append(host.scale(latency, before, after))
            before = after
            if perf_counter() - loop_start >= seconds:
                break
        wall = perf_counter() - loop_start
        notes = {
            "samples": len(latencies),
            "wall_setup_s": statistics.median(setup_times),
            "wall_ops_per_s": len(latencies) / wall,
            "wall_latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
            "reference_chunk_p50_ms": 1e3 * statistics.median(host.samples),
            "latencies_ms": [round(1e3 * latency, 1) for latency in latencies],
        }
        if workload.served:
            workload.stop_probes()
            notes["health_slow_share"] = workload.prober.slow_share()
            notes["health_probes"] = len(workload.prober.latencies)
            notes["probe_lateness_p50_ms"] = 1e3 * statistics.median(workload.prober.lateness)
        workload.check(outcome)
    finally:
        workload.close()
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": len(scaled) / sum(scaled) if scaled else float("nan"),
        "latency_p50_ms": 1e3 * statistics.median(scaled) if scaled else float("nan"),
        "peak_rss_mb": rss,
    }
    notes["fail_ratio"] = outcome.failed / outcome.attempted
    return metrics, outcome, notes


def run_end_to_end(name: str, seed: int, seconds: float):
    metrics, outcome, notes = measure(name, seed, seconds, SETUPS)
    units = dict(END_TO_END)
    for key, value in metrics.items():
        extra = f"  (n={notes['samples']} samples)" if key == "latency_p50_ms" else ""
        print(f"{name} {key} {value:.6g} {units[key]}{extra}")
    for key, value in notes.items():
        if key != "samples":
            print(f"{name} {key} {value}")
    return metrics, outcome


def run_traced(name: str, seed: int, seconds: float):
    import repro
    from layers import PER_LAYER, sweep
    from workloads import Outcome

    outcome = Outcome()
    # Half-length loops keep the traced run (with its layer sweep) short.
    seconds /= 2
    untraced, first, _ = measure(name, seed, seconds, 1)
    OUT.mkdir(exist_ok=True)
    overhead_trace = OUT / "overhead.jsonl"
    for path in (overhead_trace, OUT / "overhead-server.jsonl"):
        path.unlink(missing_ok=True)
    repro.obs.enable()
    repro.obs.enable_tracing(overhead_trace)
    try:
        traced, second, _ = measure(name, seed, seconds, 1, trace_file=OUT / "overhead-server.jsonl")
    finally:
        repro.obs.disable_tracing()
        repro.obs.disable()
    outcome.merge(first, "untraced")
    outcome.merge(second, "traced")
    metrics, tables = sweep(seed, outcome)
    metrics["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
    for table in tables:
        print(table)
    for key, unit in PER_LAYER:
        print(f"{name} {key} {metrics[key]:.6g} {unit}")
    return {key: metrics[key] for key, _ in PER_LAYER}, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_repro()
    except FileNotFoundError as error:
        print(f"perfbench: {error}; run from a repository checkout", file=sys.stderr)
        return 2
    env = environment()
    env["pinned_core"] = pin_to_one_core()
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    from workloads import Outcome

    if args.trace:
        from layers import PER_LAYER as table

        run = run_traced
    else:
        table, run = END_TO_END, run_end_to_end
    units = dict(table)
    total = Outcome()
    results = {}
    for name in names:
        metrics, outcome = run(name, args.seed, args.seconds)
        for op, notes in outcome.failures.items():
            print(f"{name} FAILED {op}: {'; '.join(notes)}", file=sys.stderr)
        total.merge(outcome, name)
        results[name] = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    report = results[names[0]] if len(names) == 1 else {
        f"{name}/{key}": entry for name in names for key, entry in results[name].items()
    }
    print(json.dumps({
        "correct": not total.failures,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
