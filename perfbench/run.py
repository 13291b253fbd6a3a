#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload edit_text --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the daemon and the benchmark program
from this checkout's sources into .bench_build/ (Release), runs one
workload for --seconds, and passes the program's report through: every
metric with its unit and sample count, then one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the spans to
.bench_out/). See perfbench/README.md.
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
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("edit_text", "job_backlog", "population")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "tools/shadowd_main.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("repository source %s not found; run from a full checkout" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "shadowd", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            die("build failed: " + " ".join(cmd))


def run_cpu():
    """The one CPU a run is pinned to, with the daemon it starts.

    On a shared virtual machine a hand-off between processes on different
    vCPUs waits for the hypervisor to run the woken vCPU, so wall times
    swing with other tenants' load. On one CPU every hand-off is a local
    context switch. See "One CPU" in perfbench/README.md.
    """
    return max(os.sched_getaffinity(0))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
    spans = os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    if args.trace and os.path.exists(spans):
        os.remove(spans)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--shadowd", os.path.join(BUILD, "shadowd"),
           "--spec", os.path.join(HERE, "population.scn"),
           "--work-dir", work, "--spans", spans]
    # Own process group: on a timeout the program and any daemon it started
    # are stopped together. The daemon inherits the CPU affinity.
    cpu = run_cpu()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        die("run did not finish within %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        die("benchmark printed no result (exit %d)" % proc.returncode)
    missing = set(expected_metrics(args.trace)) ^ set(result["metrics"])
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
