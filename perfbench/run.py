#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --selftest          # the benchmark's own unit tests

The benchmark is the Rust package next to this file. It is built from
source in release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root), then run once per workload. Build output goes to
standard error, so the last line of standard output is the result object
of the run: {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when the build fails, a check fails or no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hot-zipf", "cold-uniform", "tree-exact", "ingest-mixed"]
# The read workloads are one client and one server worker taking turns, so
# they run on one core (see poll() in src/serving.rs); ingest-mixed runs a
# writer and a reader at once.
ONE_CORE = {"hot-zipf", "cold-uniform", "tree-exact"}
# A measurement run finishes well inside this; a hung one is stopped.
RUN_TIMEOUT_S = 170


def cargo_env():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    env["CARGO_NET_OFFLINE"] = "true"
    return env, target


def cargo(args, env):
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, result object or None, output lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # A fixed mmap threshold stops glibc from moving it as large blocks
    # are freed, which otherwise decides run by run whether a freed copy
    # of a dataset stays resident: peak_rss_mb then measures live memory.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="262144")
    pin = None
    if workload in ONE_CORE:
        core = {min(os.sched_getaffinity(0))}
        pin = lambda: os.sched_setaffinity(0, core)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None, []
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        pass
    ok = isinstance(result, dict) and set(result) == {"correct", "attempted", "failed", "metrics"}
    return proc.returncode if ok else (proc.returncode or 1), (result if ok else None), lines


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    env, target = cargo_env()
    if a.selftest:
        return cargo(["test"], env)
    if cargo(["build"], env) != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"

    if a.workload != "all":
        code, result, lines = run_one(binary, a.workload, a.seed, a.seconds, a.trace)
        if result is None:
            print("\n".join(lines[:-1]) if lines else "", file=sys.stderr)
            return code or 1
        print("\n".join(lines))
        return code

    # Every workload, untraced then traced; the last line merges them with
    # each metric prefixed by its workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            c, result, lines = run_one(binary, workload, a.seed, a.seconds, trace)
            print("\n".join(lines[:-1]))
            code = code or c
            if result is None:
                merged["correct"] = False
                continue
            merged["correct"] &= bool(result["correct"])
            if trace == 0:
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(merged))
    return code or (0 if merged["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
