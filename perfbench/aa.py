#!/usr/bin/env python3
"""A/A check: two sets of runs of the same build, compared metric by metric.

    python3 perfbench/aa.py [--runs 10] [--seconds S] [--workloads a,b] [--out FILE]

Run from the root of a checkout. Set A uses seeds 1..N and set B seeds
N+1..2N; set B starts after set A ends. For every workload and
end-to-end metric it prints each set's median and quartiles (Python's
statistics.quantiles, n=4), the quartile spread as a share of the
median, and whether set B's median is within the metric's bound of set
A's in the direction the metric can get worse. It also prints the core
count. The exit code is 1 when a run fails or a result is wrong, 0
otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("wrong result: %s seed %d: %s" % (workload, seed, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", help="also write every run's metrics here as JSON")
    a = p.parse_args()
    workloads = a.workloads.split(",")
    raw = {}
    for s, seeds in (("A", range(1, a.runs + 1)), ("B", range(a.runs + 1, 2 * a.runs + 1))):
        for w in workloads:
            raw[(s, w)] = [one_run(w, seed, a.seconds) for seed in seeds]
            print("set %s %s: %d runs done" % (s, w, a.runs), file=sys.stderr, flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"%s/%s" % k: v for k, v in raw.items()}, f, indent=1)
    print("cores: %d   runs per set: %d   seconds per run: %d"
          % (os.cpu_count(), a.runs, a.seconds))
    print("%-15s %-24s %12s %12s %12s %7s %12s %12s %12s %7s %6s %s"
          % ("workload", "metric", "A median", "A q1", "A q3", "A sprd",
             "B median", "B q1", "B q3", "B sprd", "bound", "agree"))
    all_agree = True
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = summary([r[name] for r in raw[("A", w)]])
            sb = summary([r[name] for r in raw[("B", w)]])
            worse = (sb[0] - sa[0]) / sa[0] if m["better"] == "lower" else (sa[0] - sb[0]) / sa[0]
            agree = worse <= bound
            all_agree &= agree
            print("%-15s %-24s %12.5g %12.5g %12.5g %6.1f%% %12.5g %12.5g %12.5g %6.1f%% %5.0f%% %s"
                  % (w, name, sa[0], sa[1], sa[2], 100 * sa[3], sb[0], sb[1], sb[2],
                     100 * sb[3], 100 * bound, "yes" if agree else "NO"))
    print("all metrics agree within their bounds: %s" % ("yes" if all_agree else "NO"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
