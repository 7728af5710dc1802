#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
Tiger libraries from src/) into the build directory, then runs one workload
and passes its output through: the last line of standard output is the JSON
result. The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the repository root. Traced runs write their spans to
<build>/spans/<workload>-seed<N>.json.

--test builds and runs the package's own test: ring_sharded at 1 and at 4
worker threads must produce identical simulated statistics.

Exits nonzero, without a result line, when the build fails (for example when
the checkout holds no src/ tree), and with the benchmark's own status when a
correctness check fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring_serial", "ring_sharded", "vod_churn", "frontier_sweep")
# A run ends well inside this: tigerbench stops starting episodes at 120 s.
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    # Serialize builds of one checkout: concurrent runs share the tree.
    with open(os.path.join(out, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(BUILD_JOBS), "--target"] + targets)
        # Compiler scratch files stay inside the checkout too.
        env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
        os.makedirs(env["TMPDIR"], exist_ok=True)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    out = build(["tigerbench_test"] if args.test else ["tigerbench"])
    if out is None:
        return 1
    if args.test:
        return subprocess.run([os.path.join(out, "tigerbench_test")]).returncode

    cmd = [os.path.join(out, "tigerbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "%g" % args.seconds, "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
