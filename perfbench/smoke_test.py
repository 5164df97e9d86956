#!/usr/bin/env python3
"""Seconds-long test of the repository benchmark.

    python3 perfbench/smoke_test.py [WORKLOAD...]

Runs every workload (or the ones named) in smoke mode (small inputs, one
round, every output check on), untraced and traced, and fails when a run
crashes, prints no result line, or reports a wrong output. A later change
that breaks a workload fails here in about a minute instead of inside a
long benchmark run.

fed_race fails here while a defect of the program stands: file.write
truncates the file and then rewrites it in place, so a file.read that
lands in between returns a short file. The test passes once overwrites
are atomic.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rpc_fig4", "fed_files", "bulk_get", "portal_login", "fed_race"]


def failure_reasons(report):
    """Failed-op reasons and problems from the driver's report lines."""
    reasons = []
    for line in report:
        m = re.match(r"\s+failed (\d+) x (.*)$", line)
        if m:
            reasons.append("%s x %s" % (m.group(1), m.group(2)))
        elif line.startswith("PROBLEM: "):
            reasons.append(line[len("PROBLEM: "):])
    return reasons


def check(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return "no result line (exit %d)" % proc.returncode
    if result["attempted"] < 1:
        return "no op attempted"
    if result["correct"] and proc.returncode == 0:
        return None
    return "; ".join(failure_reasons(lines[:-1])) or "incorrect (exit %d)" % proc.returncode


def main():
    workloads = sys.argv[1:] or WORKLOADS
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            error = check(workload, trace)
            print("%-14s trace=%d  %s" % (workload, trace, "ok" if error is None else "FAIL: " + error))
            failures += error is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
