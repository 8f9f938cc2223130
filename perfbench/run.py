#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload circuit_local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the runtime from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. --selftest builds and runs the helper tests, which include a
tiny-size smoke run of every workload, and checks that the metric catalogue
matches BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def check(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(target):
    bdir = build_dir()
    configured = any(os.path.exists(os.path.join(bdir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    return os.path.join(bdir, target)


def run_group(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the distributed workload forks rank processes) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s and was killed\n" % timeout)
        return 1


def selftest():
    tests = build("perfbench_tests")
    if run_group([tests], 600) != 0:
        return 1
    bench = build("perfbench")
    listed = subprocess.run([bench, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    catalogue = {}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        catalogue.setdefault(kind, {})[name] = unit
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if declared != catalogue.get(kind, {}):
            sys.stderr.write("perfbench: %s metrics in BENCHMARK.json differ from the "
                             "program's catalogue\n" % kind)
            return 1
    print("selftest: helper tests, smoke runs and metric catalogue OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    bench = build("perfbench")
    work = build_dir()
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, so the Unix socket path stays short.
           "--work-dir", os.path.relpath(work)]
    if args.trace:
        traces = os.path.join(work, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.trace.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # Room for the set-ups and the serial reference on top of the timed phase.
    return run_group(cmd, 120 + 2 * args.seconds)


if __name__ == "__main__":
    sys.exit(main())
