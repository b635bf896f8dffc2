#!/usr/bin/env python3
"""Builds the Bohm benchmark from source and runs one workload.

Run from the root of the repository (or any copy of its files):

    python3 perfbench/run.py --workload ycsb_hot_rmw --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --selfcheck

The build goes to .bench_build/perfbench (CMake, Release); run outputs (the
durable workload's log, trace files) go to .bench_build/run. The last line
of standard output is the result object; see README.md for its metrics.
The exit code is non-zero when the build fails, a correctness gate fails, or
the program does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "bohm_perf")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bohm_perf; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bohm", "engine.h")):
        log(f"engine sources missing under {ROOT}/src")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def run_binary(args):
    """Runs bohm_perf with `args`; returns (exit code, stdout lines)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    # A run that was killed leaves its durable log (log-<pid>...) behind;
    # drop those whose process is gone.
    for name in os.listdir(RUN_DIR):
        pid = name[4:].split("-")[0]
        if name.startswith("log-") and pid.isdigit() and not alive(int(pid)):
            shutil.rmtree(os.path.join(RUN_DIR, name), ignore_errors=True)
    proc = subprocess.Popen([BINARY, "--out-dir", RUN_DIR] + args,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"bohm_perf did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def selfcheck():
    """Tiny-size check of the benchmark itself, against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = ["--workload", workload, "--seed", "7", "--seconds", "0.4",
                    "--trace", str(trace), "--scale", "tiny"]
            code, lines = run_binary(args)
            where = f"{workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correctness gate fired")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']}"
                                    f" != {m['unit']}")
                elif trace == 0 and not got["value"] > 0:
                    problems.append(f"{where}: {m['name']} is {got['value']}")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
        # The gate must fire when the expected sum is off by one.
        code, lines = run_binary(
            ["--workload", workload, "--seed", "7", "--seconds", "0.2",
             "--trace", "0", "--scale", "tiny", "--expect-offset", "1"])
        if code == 0 or not lines or json.loads(lines[-1])["correct"]:
            problems.append(f"{workload}: off-by-one expected sum not caught")
    for p in problems:
        log("SELFCHECK FAIL: " + p)
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    opts = parser.parse_args()
    if not opts.selfcheck and not opts.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    if opts.selfcheck:
        return selfcheck()
    code, lines = run_binary(
        ["--workload", opts.workload, "--seed", str(opts.seed),
         "--seconds", repr(opts.seconds), "--trace", str(opts.trace)])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
