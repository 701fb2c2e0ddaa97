#!/usr/bin/env python3
"""Benchmark of record for the DLVP simulator.

    python3 perfbench/run.py --workload grid|mega-stream|serve \\
        --seed N --seconds S --trace 0|1 [--write-record]

Run from the root of a checkout. Builds perfbench/ (the simulator's
libraries, the dlvp_serve daemon and the perfbench driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload in .bench_work/<workload>, prints the driver's report, compares
its exact counts and timings with perfbench/record.json, and prints the
result as one JSON object on the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--write-record merges this run into perfbench/record.json.

Exit status: the driver's (0 = every output check passed, 3 = some
failed, result still printed); 2 when the build fails, with no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "record.json")
WORKLOADS = ("grid", "mega-stream", "serve")
# Context fields that must match before timings are comparable.
HOST_FIELDS = ("cpu", "compiler", "build_type", "nproc", "native")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns the binary directory or None."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the report.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return build_dir


def load_record():
    try:
        with open(RECORD) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def compare_with_record(workload, seed, trace, context, exact, metrics):
    """Report lines comparing this run with the committed record."""
    rec = load_record().get("workloads", {}).get(workload)
    if not rec:
        return ["vs record: no record for " + workload]
    lines = []
    rec_exact = rec.get("exact", {})
    shared = sorted(set(rec_exact) & set(exact))
    differ = [k for k in shared if rec_exact[k] != exact[k]]
    if differ:
        lines.append("vs record: EXACT COUNTS DIFFER in %d of %d "
                     "(a speed-only change must leave them identical):"
                     % (len(differ), len(shared)))
        lines += ["  %s: record %r, now %r" % (k, rec_exact[k], exact[k])
                  for k in differ]
    else:
        lines.append("vs record: %d exact counts identical" % len(shared))
    if trace:
        return lines
    rec_ctx = rec.get("context", {})
    hosts = [f for f in HOST_FIELDS if rec_ctx.get(f) != context.get(f)]
    if hosts:
        lines.append("vs record: HOST DIFFERS (%s) -- timings below are "
                     "not comparable" % ", ".join(
                         "%s %r vs %r" % (f, rec_ctx.get(f), context.get(f))
                         for f in hosts))
    rec_seed = rec_ctx.get("seed")
    lines.append("vs record: seed %s %s the record's seed %s" % (
        seed, "is held out from" if seed != rec_seed else "equals",
        rec_seed))
    for name, m in sorted(metrics.items()):
        old = rec.get("end_to_end", {}).get(name)
        if old:
            lines.append("  %-12s record %.6g, now %.6g %s (%+.1f%%)" % (
                name, old, m["value"], m["unit"],
                100.0 * (m["value"] / old - 1.0)))
    return lines


def write_record(workload, trace, context, exact, metrics):
    rec = load_record()
    entry = rec.setdefault("workloads", {}).setdefault(workload, {})
    entry.setdefault("exact", {}).update(exact)
    if not trace:
        entry["context"] = context
        entry["end_to_end"] = {k: m["value"] for k, m in metrics.items()}
    with open(RECORD, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-record", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    if build(build_dir) is None:
        return 2
    work = os.path.join(".bench_work", args.workload)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    proc = subprocess.run(
        [os.path.join(build_dir, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--work-dir", work,
         "--serve-bin", os.path.join(build_dir, "dlvp_serve")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    machine = {}
    for line in proc.stdout.splitlines():
        if line.startswith("@"):
            tag, _, body = line.partition(" ")
            machine[tag[1:]] = json.loads(body)
        else:
            print(line)
    if "result" not in machine:
        log("perfbench: the driver printed no result (exit %d)"
            % proc.returncode)
        return proc.returncode or 1
    result = machine["result"]
    for line in compare_with_record(args.workload, args.seed, args.trace,
                                    machine["context"], machine["exact"],
                                    result["metrics"]):
        print(line)
    if args.write_record:
        write_record(args.workload, args.trace, machine["context"],
                     machine["exact"], result["metrics"])
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
