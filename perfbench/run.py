"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload cold-ladder --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (layers wrapped from outside by
:mod:`perfbench.tracing`) with ``--trace 1``.  The line before it breaks the
run down per operation kind.  A wrong value ends the run with exit code 3 and
no result line; a checkout without the program's sources ends it with exit
code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-ladder", "cold-safe-brute", "workspace-stream", "serve-mix")

#: The metric lists (names, units, directions) are those of BENCHMARK.json.
BENCHMARK = ROOT / "BENCHMARK.json"

#: Layer metrics that must fire on each workload (a traced run asserts it).
EXPECTED = {
    "cold-ladder": (
        "analysis.classify_ms", "counting.lineage_ms", "counting.lineage_clauses",
        "counting.convolve_calls", "compile.compile_ms", "compile.circuit_nodes",
        "compile.bottom_up_ms", "compile.top_down_ms", "engine.decompose_ms",
        "engine.islands", "engine.solve_component_ms", "engine.combine_ms",
        "values.combine_ms", "api.session_ms", "reliability.fault_checks"),
    "cold-safe-brute": (
        "analysis.classify_ms", "engine.brute_ms", "engine.safe_ms",
        "probability.lifted_ms", "linalg.solve_ms", "values.combine_ms",
        "api.session_ms"),
    "workspace-stream": (
        "counting.convolve_calls", "compile.restrict_ms", "compile.probability_ms",
        "data.snapshot_ms", "workspace.refresh_ms", "workspace.keys_ms",
        "workspace.store_get_ms", "workspace.store_put_ms", "workspace.store_hits",
        "workspace.whatif_ms", "workspace.route_patch", "workspace.route_reuse",
        "incremental.apply_ms", "incremental.patch_ms", "incremental.recombine_ms",
        "incremental.islands_reused", "reliability.fault_checks"),
    "serve-mix": (
        "api.session_ms", "data.snapshot_ms", "workspace.refresh_ms",
        "workspace.keys_ms", "workspace.whatif_ms", "workspace.route_patch",
        "incremental.patch_ms", "serve.http_ms", "serve.queue_ms",
        "reliability.fault_checks"),
}


def _quantile_ms(samples: "list[float]", q: float) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1] * 1e3


#: Per-kind latency names of the detail line: name -> the kinds it pools.
#: The cold workloads have none: each rung is a kind of its own.
LATENCY_NAMES = {
    "cold-ladder": {},
    "cold-safe-brute": {},
    "workspace-stream": {"refresh": ("toggle", "flip"), "reuse": ("reuse",),
                         "whatif": ("whatif",)},
    "serve-mix": {"attribute": ("attribute",),
                  "stalled_attribute": ("attribute_during_whatif",),
                  "refresh": ("deltas",), "whatif": ("whatif",)},
}


def _latencies(samples: "list[float]") -> dict:
    """Median, and the 90th percentile only from 100 samples on (ms)."""
    out = {"samples": len(samples)}
    if samples:
        out["p50_ms"] = statistics.median(samples) * 1e3
    if len(samples) >= 100:
        out["p90_ms"] = _quantile_ms(samples, 0.9)
    return out


def summarize(workload: str, rec) -> "tuple[dict, dict]":
    """Per-kind accounting, and the pooled per-kind latency names.

    A kind's ``share`` is its part of the summed operation latencies: what
    the workload's mix weighs it by in ``ops_per_s``.  Latencies are at the
    reference speed (see ``workloads.Clock``); ``wall_p50_ms`` is the
    median as measured on the wall clock.
    """
    total = sum(sum(kind.latencies) for kind in rec.kinds.values()) or 1.0
    kinds = {name: {"attempted": kind.attempted, "failed": kind.failed,
                    "errors": dict(kind.errors),
                    "share": sum(kind.latencies) / total,
                    **_latencies(kind.latencies),
                    "wall_p50_ms": (statistics.median(kind.wall) * 1e3
                                    if kind.wall else None)}
             for name, kind in sorted(rec.kinds.items())}
    named = {}
    for name, pooled in LATENCY_NAMES[workload].items():
        samples = [x for kind_name, kind in rec.kinds.items()
                   if kind_name in pooled for x in kind.latencies]
        for key, value in _latencies(samples).items():
            if key != "samples":
                named[f"{name}_{key}"] = value
    return kinds, named


def layer_metrics(workload: str, rec, tracer, per_layer: "list[dict]") -> dict:
    """Every per-layer metric, per operation; stops if an expected layer never fired."""
    inside_service = sum(tracer.async_s.values())
    seconds = {**tracer.self_s,
               "serve.http": max(rec.layer["serve.round_trip_s"] - inside_service, 0.0),
               "serve.queue": max(inside_service - tracer.executor_s, 0.0)}
    ops = max(rec.ops, 1)
    metrics = {}
    for spec in per_layer:
        name, unit = spec["name"], spec["unit"]
        if unit == "ms/op":
            value = seconds.get(name.removesuffix("_ms"), 0.0) * 1e3 / ops
        else:
            value = (tracer.counts.get(name, 0) + rec.layer.get(name, 0)) / ops
        metrics[name] = {"value": value, "unit": unit}
    missing = [name for name in EXPECTED[workload] if metrics[name]["value"] <= 0]
    if missing:
        raise SystemExit(f"traced run: layers that never fired on {workload}: {missing}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import instances, oracles, tracing, workloads

    bench = json.loads(BENCHMARK.read_text())
    started = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    rec = workloads.Recorder(tracer, args.seconds)
    try:
        oracles.self_test(instances.QUERIES["q_RST"], instances.QUERY_ATOMS["q_RST"])
        if args.workload in workloads.COLD_RUNGS:
            workloads.cold_ladder(args.workload, args.seed, rec)
        elif args.workload == "workspace-stream":
            workloads.workspace_stream(args.seed, rec, traced=tracer is not None)
        else:
            workloads.serve_mix(args.seed, rec, out_dir)
    except oracles.OracleError as error:
        print(f"error: wrong value: {error}", file=sys.stderr)
        return 3

    kinds, named = summarize(args.workload, rec)
    attempted = sum(k["attempted"] for k in kinds.values())
    failed = sum(k["failed"] for k in kinds.values())
    if tracer is not None:
        metrics = layer_metrics(args.workload, rec, tracer, bench["per_layer"])
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json")
    else:
        medians = [k["p50_ms"] for k in kinds.values() if "p50_ms" in k]
        values = {
            "setup_s": statistics.median(rec.setup_times),
            "ops_per_s": (attempted - failed) / rec.timed_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_p50_ms": math.exp(statistics.fmean(math.log(m) for m in medians)),
        }
        metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                   for spec in bench["end_to_end"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "setup_s": rec.setup_times, "timed_s": rec.timed_s,
                      "wall_timed_s": rec.busy_s,
                      "wall_s": time.perf_counter() - started, "kinds": kinds,
                      "latencies": named}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
