#!/usr/bin/env python3
"""Tests for the repository benchmark, on its tiny-size mode.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the simulated metrics repeat exactly at a fixed seed, that the traced
replay matches the library run and writes properly nested spans, and that
the benchmark fails cleanly when the sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

WORKLOADS = ("paper-sweep", "attack-campaign", "prefilter-resume")
SEED = 3
OUT_DIR = os.path.join(".bench_build", "out")
SIMULATED_E2E = ("sim_overhead_pct", "code_size_ratio")
SIMULATED_LAYER = ("campaign.detection_rate", "campaign.detect_latency_insts")

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)

_runs = {}


def run(workload, trace, seed=SEED, cwd=None, fresh=False):
    """Run the benchmark in tiny mode; returns (exit code, stdout lines)."""
    key = (workload, trace, seed, cwd)
    if fresh or key not in _runs:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--tiny"],
            cwd=cwd, capture_output=True, text=True, timeout=600)
        _runs[key] = (proc.returncode, proc.stdout.splitlines())
    return _runs[key]


def result(workload, trace, **kw):
    code, lines = run(workload, trace, **kw)
    assert code == 0, "exit %d: %s" % (code, lines[-5:])
    return json.loads(lines[-1])


class MetricsEmitted(unittest.TestCase):
    def check_mode(self, trace, defs):
        expected = {d["name"]: d["unit"] for d in defs}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                res = result(workload, trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self):
        self.check_mode(0, BENCH["end_to_end"])
        for workload in WORKLOADS:
            metrics = result(workload, 0)["metrics"]
            for d in BENCH["end_to_end"]:
                self.assertNotEqual(metrics[d["name"]]["value"], 0, (workload, d["name"]))

    def test_per_layer(self):
        self.check_mode(1, BENCH["per_layer"])


class SimulatedMetricsRepeat(unittest.TestCase):
    def test_end_to_end_repeat(self):
        for workload in WORKLOADS:
            first = result(workload, 0)["metrics"]
            second = result(workload, 0, fresh=True)["metrics"]
            for name in SIMULATED_E2E:
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 (workload, name))

    def test_campaign_repeat(self):
        first = result("attack-campaign", 1)["metrics"]
        second = result("attack-campaign", 1, fresh=True)["metrics"]
        for name in SIMULATED_LAYER:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertEqual(first["campaign.detection_rate"]["value"], 1)


class Trace(unittest.TestCase):
    def test_replay_matches_library(self):
        for workload in WORKLOADS:
            metrics = result(workload, 1)["metrics"]
            self.assertEqual(metrics["trace.replay_valid"]["value"], 1, workload)

    def test_every_layer_timed(self):
        metrics = result("paper-sweep", 1)["metrics"]
        for d in BENCH["per_layer"]:
            if d["unit"] in ("ns", "us", "ms"):
                self.assertGreater(metrics[d["name"]]["value"], 0, d["name"])

    def test_spans_nest(self):
        result("paper-sweep", 1)
        with open(os.path.join(OUT_DIR, "trace-seed%d.json" % SEED)) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(events)
        for i, e in enumerate(events):
            self.assertEqual(e["ph"], "X")
            self.assertEqual(e["args"]["id"], i)
            self.assertGreaterEqual(e["dur"], 0)
            parent = e["args"]["parent"]
            if parent < 0:
                continue
            self.assertLess(parent, i)
            p = events[parent]
            self.assertGreaterEqual(e["ts"], p["ts"], e["name"])
            self.assertLessEqual(e["ts"] + e["dur"], p["ts"] + p["dur"] + 1e-3, e["name"])
            if p["args"]["owner"] >= 0:
                self.assertEqual(e["args"]["owner"], p["args"]["owner"])

    def test_summary_covers_every_workload(self):
        result("paper-sweep", 1)
        with open(os.path.join(OUT_DIR, "layers-seed%d.json" % SEED)) as f:
            summary = json.load(f)
        self.assertTrue(summary["valid"])
        self.assertEqual(set(summary["workloads"]), set(WORKLOADS))
        layer_names = {d["name"] for d in BENCH["per_layer"]}
        for workload, part in summary["workloads"].items():
            self.assertEqual(set(part["metrics"]), layer_names, workload)
            self.assertEqual(part["metrics"]["trace.replay_valid"], 1, workload)
            for t in part["layers"].values():
                self.assertLessEqual(t["self_ms"], t["total_ms"] + 1e-6)


class WithoutSources(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.abspath(os.path.join(".bench_build", "bare-checkout"))
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("paper-sweep", 0, cwd=bare, fresh=True)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
