"""Check that the benchmark repeats: two alternating sets of runs per workload.

Usage (from the root of the repository)::

    python3 perfbench/steady.py --runs 5            # every workload
    python3 perfbench/steady.py --runs 5 --workload serve-mix

Each run is a fresh ``perfbench/run.py`` process with its own seed; runs of
set A and set B alternate (A first on even pairs, B first on odd ones).  For
every end-to-end metric the command prints each set's median and quartiles,
the quartile spread as a share of the median, and the drift of B's median
from A's, against the metric's bound in ``BENCHMARK.json``; it also prints
the spread over all runs together.  Exit code 1 if any spread or drift
exceeds its bound, or the sets' failed shares differ.  The same figures,
without a bound, follow for every per-kind latency and time share of the
detail line, the names later changes are claimed in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                         f"{done.stderr[-2000:]}")
    *_, detail, result = done.stdout.strip().splitlines()
    return {**json.loads(result), "detail": json.loads(detail)}


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def detail_figures(run: dict) -> "dict[str, float]":
    """The per-kind latencies and time shares of one run's detail line."""
    detail = run["detail"]
    figures = dict(detail["latencies"])
    for kind, stats in detail["kinds"].items():
        for key in ("p50_ms", "p90_ms", "share"):
            if key in stats:
                figures[f"{kind}.{key}"] = stats[key]
    return figures


def describe(values_by_set: "dict[str, list[float]]") -> dict:
    row = {}
    for set_name, values in values_by_set.items():
        row[set_name] = dict(zip(("median", "q1", "q3", "spread"), spread(values)),
                             values=values)
    both = [v for values in values_by_set.values() for v in values]
    row["all"] = dict(zip(("median", "q1", "q3", "spread"), spread(both)))
    row["drift"] = row["B"]["median"] / row["A"]["median"] - 1
    return row


def line(name: str, row: dict) -> str:
    return (f"   {name:24s} " + "  ".join(
        f"{s} {row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}] "
        f"spread {row[s]['spread']:.3f}" for s in ("A", "B", "all"))
        + f"  drift {row['drift']:+.3f}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        sets: "dict[str, list[dict]]" = {"A": [], "B": []}
        seed = args.first_seed
        for pair in range(args.runs):
            for name in ("AB" if pair % 2 == 0 else "BA"):
                sets[name].append(run_once(workload, seed, args.seconds))
                seed += 1
        print(f"== {workload} ({args.runs} runs per set, {args.seconds} s each)")
        shares = {name: {r["failed"] / r["attempted"] for r in runs}
                  for name, runs in sets.items()}
        if len(shares["A"] | shares["B"]) != 1:
            print(f"   failed shares differ: {shares}")
            ok = False
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = describe({set_name: [r["metrics"][name]["value"] for r in runs]
                            for set_name, runs in sets.items()})
            report[workload][name] = row
            worse = row["drift"] if metric["better"] == "lower" else -row["drift"]
            flags = []
            if max(row["A"]["spread"], row["B"]["spread"], row["all"]["spread"]) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("DRIFT")
            ok = ok and not flags
            print(line(name, row) + f"  bound {bound:.2f} {' '.join(flags)}")
        print("   -- per kind (no bound)")
        figures = {set_name: [detail_figures(r) for r in runs]
                   for set_name, runs in sets.items()}
        report[workload]["per_kind"] = {}
        common = set.intersection(*(set(f) for runs in figures.values() for f in runs))
        for name in sorted(common):
            row = describe({set_name: [f[name] for f in runs]
                            for set_name, runs in figures.items()})
            report[workload]["per_kind"][name] = row
            print(line(name, row))
        report[workload]["runs"] = sets
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
