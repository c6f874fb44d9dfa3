#!/usr/bin/env python3
"""Run every workload of the loadex benchmark, check it, and summarise it.

    python3 perfbench/suite.py [--seeds N] [--first-seed S] [--seconds S]
                               [--trace 0|1|both] [--workloads a,b]
                               [--record NAME] [--write-benchmark]
    python3 perfbench/suite.py --compare perfbench/runs/A.json perfbench/runs/B.json

Run from the repository root. Builds the benchmark (see run.py), runs each
workload once per seed and trace level, and prints per metric the median of
the runs and the spread: the distance between the first and third quartiles
as a share of the median. Exits non-zero if any run fails a check or any
end-to-end spread (except that of setup_s) exceeds its bound.

--write-benchmark writes BENCHMARK.json at the root from the binary's
catalog (`perfbench --catalog`). --record NAME keeps every result line and
the summary in perfbench/runs/NAME.json. --compare checks that the second
recorded set's end-to-end medians are no worse than the first's by more
than each metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RUN_SECONDS = 25
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUNS_DIR = os.path.join("perfbench", "runs")


def catalog(binary):
    out = subprocess.run([binary, "--catalog"], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def write_benchmark(cat):
    bench = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": cat["workloads"],
        "end_to_end": cat["end_to_end"],
        "per_layer": cat["per_layer"],
    }
    with open("BENCHMARK.json", "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    print("wrote BENCHMARK.json", file=sys.stderr)


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - start
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    shown = "" if trace == "1" else " ".join(
        f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
    print(f"  {workload} seed={seed} trace={trace}: {took:.1f}s, "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} {shown}", file=sys.stderr)
    return result


def spread(values):
    """Interquartile distance as a share of the median, or None at median 0."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def summarise(results):
    """{workload: {trace: {metric: {median, spread, unit}}}} of result lines."""
    summary = {}
    for workload, by_trace in results.items():
        summary[workload] = {}
        for trace, lines in by_trace.items():
            metrics = {}
            for name, first in lines[0]["metrics"].items():
                values = [line["metrics"][name]["value"] for line in lines]
                metrics[name] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "unit": first["unit"],
                }
            summary[workload][trace] = metrics
    return summary


def report(summary, bounds):
    """Print the summary; return whether every bounded spread is in bound."""
    ok = True
    for workload, by_trace in summary.items():
        for trace, metrics in by_trace.items():
            print(f"{workload} (trace {trace})")
            for name, m in metrics.items():
                s = m["spread"]
                line = f"  {name:28} {m['median']:>16.6g} {m['unit']:6}"
                line += "  spread " + ("-" if s is None else f"{s:.4f}")
                bound = bounds.get(name) if trace == "0" else None
                if bound is not None:
                    steady = s is not None and s < bound / 3
                    within = s is not None and s <= bound
                    line += f"  bound {bound}  {'steady' if steady else 'UNSTEADY'}"
                    if name != "setup_s" and not within:
                        ok = False
                        line += "  OUT OF BOUND"
                print(line)
    return ok


def compare(path_a, path_b, bounds):
    a, b = (json.load(open(p))["summary"] for p in (path_a, path_b))
    ok = True
    for workload in a:
        for name, bound in bounds.items():
            first = a[workload]["0"][name]["median"]
            second = b[workload]["0"][name]["median"]
            worse = (second - first) / first
            good = worse <= bound
            ok &= good
            print(f"{workload:14} {name:12} {first:12.6g} -> {second:12.6g}  "
                  f"{worse:+.4f} (bound {bound})  {'ok' if good else 'WORSE'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", choices=["0", "1", "both"], default="both")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--record", metavar="NAME")
    ap.add_argument("--write-benchmark", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = ap.parse_args()

    binary = run.build()
    cat = catalog(binary)
    bounds = {m["name"]: m["bound"] for m in cat["end_to_end"]}
    if args.write_benchmark:
        write_benchmark(cat)
    if args.compare:
        sys.exit(0 if compare(*args.compare, bounds) else 1)

    names = [w["name"] for w in cat["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    traces = ["0", "1"] if args.trace == "both" else [args.trace]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    # Seeds outermost, so that a slow spell on the host spreads over every
    # workload instead of landing on one.
    results = {w: {t: [] for t in traces} for w in names}
    for seed in seeds:
        for workload in names:
            for trace in traces:
                results[workload][trace].append(
                    run_once(binary, workload, seed, args.seconds, trace))
    correct = all(line["correct"] for by_trace in results.values()
                  for lines in by_trace.values() for line in lines)
    summary = summarise(results)
    in_bound = report(summary, bounds)
    if args.record:
        os.makedirs(RUNS_DIR, exist_ok=True)
        path = os.path.join(RUNS_DIR, f"{args.record}.json")
        with open(path, "w") as f:
            json.dump({"seconds": args.seconds, "seeds": list(seeds),
                       "results": results, "summary": summary}, f, indent=1)
            f.write("\n")
        print(f"recorded {path}", file=sys.stderr)
    if not correct:
        print("some runs failed their output checks", file=sys.stderr)
    sys.exit(0 if correct and in_bound else 1)


if __name__ == "__main__":
    main()
