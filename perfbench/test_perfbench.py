"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py' -v

Each test runs perfbench/run.py for real (the first one builds). They
check that every workload prints every metric BENCHMARK.json declares,
with its unit, in both modes, and that the span shares of the layers a
workload's rounds call into are not zero; that injected faults are
counted as failed operations instead of yielding a result; and that the
benchmark fails without a result where the simulator's sources are
missing. `serve` is not among BENCHMARK.json's workloads (too unsteady
to gate); it prints the declared metrics and its own besides.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

# Figures each workload's report must name beside the gated metrics.
WORKLOAD_FIGURES = {
    "grid": ["failed_ops_ratio"],
    "mega-stream": ["failed_ops_ratio"],
    "serve": ["failed_ops_ratio", "hit_p50_ms", "hit_p99_ms", "miss_p50_ms",
              "miss_p90_ms", "serve_rps", "serve.miss_sim_cpu_share"],
}
GATED = {w["name"] for w in BENCH["workloads"]}
# Per-layer metrics of the traced run that must not be 0: the span
# share of every layer the workload's rounds call into, and what only
# that workload measures.
NONZERO_LAYERS = {
    "grid": ["span.trace_share", "span.core_share"],
    "mega-stream": ["span.trace_share", "span.core_share",
                    "sim.detail_fraction"],
    "serve": ["span.serve_share", "serve.hit_ratio",
              "serve.daemon_cpu_ms_per_req", "serve.miss_sim_cpu_share"],
}


def run(workload, trace, fault=None, cwd=ROOT, seconds=1):
    env = dict(os.environ)
    env.pop("DLVP_FAULT_INJECT", None)
    if cwd != ROOT:
        # A build tree outside @p cwd would still hold the real sources.
        env.pop("CARGO_TARGET_DIR", None)
    if fault:
        env["DLVP_FAULT_INJECT"] = fault
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=1800)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def reported(proc, name):
    """Value of a `  <name> <value> <unit>` report line, or None."""
    m = re.search(r"^\s+%s\s+(\S+) \S+" % re.escape(name), proc.stdout,
                  re.MULTILINE)
    return float(m.group(1)) if m else None


class MetricsTest(unittest.TestCase):

    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout[-3000:] + proc.stderr[-3000:])
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        names = {m["name"] for m in declared}
        if workload in GATED:
            self.assertEqual(set(res["metrics"]), names)
        else:
            # Span shares name the layers a workload's rounds call into.
            names = {n for n in names if not re.match(r"span\.\w+_share$", n)
                     or n == "span.other_share"}
            self.assertLessEqual(names, set(res["metrics"]))
        for m in (m for m in declared if m["name"] in names):
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertIsNotNone(reported(proc, m["name"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        for name in WORKLOAD_FIGURES[workload]:
            self.assertIsNotNone(reported(proc, name), name)
        if trace:
            for name in NONZERO_LAYERS[workload]:
                self.assertGreater(res["metrics"][name]["value"], 0, name)
        self.assertEqual(reported(proc, "failed_ops_ratio"), 0.0)

    def test_grid(self):
        self.check("grid", 0)

    def test_grid_traced(self):
        self.check("grid", 1)

    def test_mega_stream(self):
        self.check("mega-stream", 0)

    def test_mega_stream_traced(self):
        self.check("mega-stream", 1)

    def test_serve(self):
        self.check("serve", 0)

    def test_serve_traced(self):
        self.check("serve", 1)


class FaultTest(unittest.TestCase):
    """Injected faults must fail operations, never speed a number up."""

    def check_fails(self, workload, fault):
        proc = run(workload, 0, fault=fault)
        self.assertEqual(proc.returncode, 3,
                         proc.stdout[-3000:] + proc.stderr[-3000:])
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertGreater(reported(proc, "failed_ops_ratio"), 0.0)

    def test_trace_build_fault(self):
        self.check_fails("grid", "build:mcf")

    def test_v2_bit_flip(self):
        # Byte 20M lies inside both 2M-uop mega traces' chunk data.
        self.check_fails("mega-stream", "flip:20000000.3")


class BareDirectoryTest(unittest.TestCase):

    def test_fails_without_result(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("grid", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
