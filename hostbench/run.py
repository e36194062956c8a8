#!/usr/bin/env python3
"""Build and run the Eden host-time benchmark from the repository root.

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of hot_invoke, locate_scale, ckpt_mix, ckpt_local, or "all"
(every workload in turn, each in a fresh process).  The benchmark is
built from source with dune; each workload then runs in its own process
so that its peak heap is its own.  The last line printed is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when the build succeeded and every correctness check
passed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["hot_invoke", "locate_scale", "ckpt_mix", "ckpt_local"]
EXE = os.path.join("_build", "default", "hostbench", "main.exe")
# Spans of traced runs land under the build directory, next to the binary.
SPANS_DIR = os.path.join("_build", "hostbench")
CHILD_TIMEOUT_S = 170


def fail(msg, code=2):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", os.path.join("lib", "kernel", "cluster.ml"),
                 os.path.join("hostbench", "dune")):
        if not os.path.isfile(need):
            fail("run from the repository root: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./" + EXE],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    except FileNotFoundError:
        fail("dune is not installed")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_one(workload, args):
    """Run one workload in a fresh process; return its result object."""
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", SPANS_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable report.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload, 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed a malformed result line" % workload, 3)
    if proc.returncode not in (0, 1):
        fail("%s exited with code %d" % (workload, proc.returncode), 3)
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 0 or args.seed < 0:
        fail("--seconds and --seed must not be negative")
    build()
    if args.workload != "all":
        result = run_one(args.workload, args)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            r = run_one(w, args)
            print("%s: %s" % (w, "correct" if r["correct"] else "FAILED"))
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                result["metrics"][w + "." + name] = m
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
