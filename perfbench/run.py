#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). A traced run also writes
its spans, one JSON object per line, to
<target dir>/perfbench-spans/<workload>-seed<n>.jsonl. The last line of
standard output is the run's JSON result; the exit code is non-zero when
the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if flag(args, "--trace") == "1" and "--spans-out" not in args:
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-seed%s.jsonl" % (flag(args, "--workload"), flag(args, "--seed"))
        args += ["--spans-out", os.path.join(spans_dir, name)]
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
