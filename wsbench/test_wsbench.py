#!/usr/bin/env python3
"""Self-tests of the wormsim benchmark. Run from the checkout root:

    python3 wsbench/test_wsbench.py

They build the benchmark program if needed, run every workload in
small-size mode (traced and untraced), and check the result format, that
every declared metric is emitted with its unit, that a corrupted pin trips
the correctness gate, and that BENCHMARK.json and pairings.json agree.
"""

import argparse
import fnmatch
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRINGS = json.loads((HERE / "pairings.json").read_text())["pairings"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "wsbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def small_run(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "5", "--seconds",
                        "0.2", "--trace", str(trace), "--small")
    return code, json.loads(lines[-1])


def report(workload, trace):
    path = (run.build_dir() / "runs" / f"{workload}-small-s5-t{trace}"
            / "report.json")
    return json.loads(path.read_text())


class BenchmarkSpec(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["wsbench"])
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, run.WORKLOADS)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        all_names = names + [m["name"] for m in SPEC["end_to_end"]
                             + SPEC["per_layer"]]
        self.assertEqual(len(all_names), len(set(all_names)))
        for name in all_names:
            self.assertRegex(name, NAME)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_every_per_layer_metric_is_paired(self):
        declared = [m["name"] for m in SPEC["per_layer"]]
        for name in declared:
            groups = [p for p in PAIRINGS
                      if any(fnmatch.fnmatchcase(name, g) for g in p["metrics"])]
            self.assertTrue(groups, f"{name} has no pairing")
        for p in PAIRINGS:
            for g in p["metrics"]:
                self.assertTrue(any(fnmatch.fnmatchcase(n, g) for n in declared),
                                f"pattern {g} matches no declared metric")
            for w in p["measured_on"]:
                self.assertIn(w, run.WORKLOADS)


class SmallMode(unittest.TestCase):
    def check(self, workload, trace):
        code, result = small_run(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        if not trace:
            for m in SPEC["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0)
            return
        # Every per-layer metric paired with this workload was measured by
        # the program, not filled in as a layer the workload does not run.
        not_run = set(report(workload, trace)["not_run"])
        for p in PAIRINGS:
            if workload not in p["measured_on"]:
                continue
            for m in SPEC["per_layer"]:
                if any(fnmatch.fnmatchcase(m["name"], g) for g in p["metrics"]):
                    self.assertNotIn(m["name"], not_run, workload)

    def test_fleet_acyclic(self):
        self.check("fleet-acyclic", 0)
        self.check("fleet-acyclic", 1)

    def test_search_proofs(self):
        self.check("search-proofs", 0)
        self.check("search-proofs", 1)

    def test_saturation_fattree(self):
        self.check("saturation-fattree", 0)
        self.check("saturation-fattree", 1)


class Gate(unittest.TestCase):
    def test_corrupted_pin_trips_the_gate(self):
        pins = json.loads((HERE / "pins.json").read_text())
        pins["small"]["search-proofs"]["fig1x2-off.verdict"] = "deadlock exhausted"
        pins["small"]["saturation-fattree"]["load-0.040.cycles"] = "1"
        binary = run.build(run.build_dir())
        args = argparse.Namespace(small=True, seed=5, seconds=0.2)
        for workload in ("search-proofs", "saturation-fattree"):
            result = run.run_workload(binary, SPEC, pins, args, workload, 0)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], 1)

    def test_fails_without_the_sources(self):
        bare = run.build_dir() / "selftest" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "wsbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = bench("--workload", "fleet-acyclic", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
