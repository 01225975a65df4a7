#!/usr/bin/env python3
"""Builds the I-SQL session benchmark from source and runs one workload.

    python3 isqlbench/run.py --workload wsd_session --seed 1 --seconds 10 --trace 0
    python3 isqlbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build. Stores live under isqlbench/stores/ and are
removed when the run ends, however it ends; traces go to isqlbench/out/.
The last line of standard output is the run's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wsd_session", "explicit_session", "durable_server")
# Per-run wall-clock limit for the benchmark process (the build excluded).
RUN_TIMEOUT_S = 170
# The engine reads these; the benchmark pins every one of them itself.
ENGINE_ENV = (
    "MAYBMS_THREADS", "MAYBMS_STORAGE", "MAYBMS_STORAGE_DIR", "MAYBMS_POOL_PAGES",
    "MAYBMS_STATEMENT_TIMEOUT_MS", "MAYBMS_MAX_WORLDS", "MAYBMS_MEM_BUDGET_MB",
    "MAYBMS_COMBINER_ORACLE",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds; cmake output goes to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def terminate(proc):
    """Kills the runner's process group (it and its reference kernel) and
    waits until every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 2
    bin_dir = build_dir
    if args.selftest:
        return subprocess.run([os.path.join(bin_dir, "isqlbench_selftest")]).returncode

    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    store_dir = os.path.join(HERE, "stores", f"run-{os.getpid()}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(store_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bin_dir, "isql_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store-dir", store_dir,
           "--kernel", os.path.join(bin_dir, "ref_kernel"),
           "--trace-out", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    proc = None

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        proc = subprocess.Popen(cmd, env=env, start_new_session=True)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"run.py: no result within {RUN_TIMEOUT_S} s")
            return 3
    finally:
        if proc is not None:
            terminate(proc)
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
