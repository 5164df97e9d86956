#!/usr/bin/env python3
"""Build and run the Clarens repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root. The first run configures and builds the
Clarens libraries and the driver (perfbench/*.cpp) into
.bench_build/perfbench; later runs rebuild incrementally. The driver's
report goes to stdout. The last line is one JSON object with the keys
correct, attempted, failed and metrics, holding the metrics BENCHMARK.json
gates; the report above it prints every metric.

--smoke runs with small inputs (every output check stays on). --workload
all runs the four gated workloads in turn and ends with a summary table
and one combined JSON line of every metric, prefixed with the workload.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "clarens_perfbench")
# The workloads BENCHMARK.json gates, which --workload all runs.
GATED_WORKLOADS = ["rpc_fig4", "fed_files", "bulk_get", "portal_login"]
# fed_race is not gated: its callers share files, an overwrite truncates
# the file in place, so a concurrent read can return a short file and the
# run fails its output check until overwrites are atomic.
OTHER_WORKLOADS = ["fed_race"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Clarens sources not found next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args, workload):
    """Run the driver once; return its parsed result line."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        # The driver keeps its scratch state under .bench_build/.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": driver did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode < 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("%s: driver killed by signal %d" % (workload, -proc.returncode))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(workload + ": driver printed no result line")
    print("\n".join(lines[:-1]))
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=GATED_WORKLOADS + OTHER_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    if args.workload != "all":
        result, code = run_one(args, args.workload)
        # The driver reports every metric it has; the result line carries
        # the ones BENCHMARK.json gates (the report above shows the rest).
        metrics = result.get("metrics", {})
        want = expected_metrics(args.trace)
        missing = sorted(want - set(metrics))
        if missing:
            fail("driver did not report %s" % missing)
        result["metrics"] = {name: metrics[name] for name in sorted(want)}
        print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in GATED_WORKLOADS:
        result, _ = run_one(args, workload)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
        rows.append((workload, result))
    names = sorted({n for _, r in rows for n in r["metrics"]})
    print("== summary (attempted/failed per workload)")
    print("%-22s" % "metric" + "".join("%16s" % w for w, _ in rows))
    for name in names:
        cells = []
        for _, r in rows:
            m = r["metrics"].get(name)
            cells.append("%16.4f" % m["value"] if m else "%16s" % "-")
        unit = next(r["metrics"][name]["unit"] for _, r in rows if name in r["metrics"])
        print("%-22s" % (name + " " + unit) + "".join(cells))
    print("%-22s" % "attempted/failed" +
          "".join("%16s" % ("%d/%d" % (r["attempted"], r["failed"])) for _, r in rows))
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
