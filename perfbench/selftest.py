"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload at size "tiny" (search at n = 6, two small symmetric
hosts and one random host, verify over n = 5) through the same measuring and
tracing code as a real run.  Checks that every metric named in
BENCHMARK.json is emitted with its unit, that the correctness gate passes,
that it fails once a pinned expectation is corrupted, and that the runner
refuses to run without the genturan sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

import run

WL = run.import_workloads()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny(workload: str, traced: bool) -> dict:
    result, _ = run.run(WL, workload, seed=7, seconds=0.01, traced=traced, size="tiny")
    return result


class MetricsEmitted(unittest.TestCase):
    def check_metrics(self, result: dict, declared: list[dict]) -> None:
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, traced=False)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, traced=True)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertEqual(result["failed"], 0)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertLessEqual(metrics["trace.layer_self_s"], metrics["trace.wall_s"])
                self.assertGreater(metrics["trace.spans"], 0)

    def test_layers_seen_where_expected(self):
        search = {k: v["value"] for k, v in tiny("search", True)["metrics"].items()}
        self.assertEqual(search["graphs.enum.classes"], 156 + 38 + 130)
        self.assertEqual(search["search.explored"], 156 + 38 + 130)
        self.assertGreater(search["counting.prune.calls"], 0)
        hosts = {k: v["value"] for k, v in tiny("hosts", True)["metrics"].items()}
        for layer in ("graphs.canon", "counting.count", "packing", "graph6", "gspec",
                      "constructions"):
            self.assertGreater(hosts[f"{layer}.calls"], 0, layer)
        self.assertEqual(hosts["graphs.enum.classes"], 0)
        verify = {k: v["value"] for k, v in tiny("verify", True)["metrics"].items()}
        self.assertEqual(verify["verify.checks"], 19)
        self.assertGreater(verify["search.repeat_ratio"], 0)
        self.assertGreater(verify["cli.self_s"], 0)


class GateCanFail(unittest.TestCase):
    def corrupt(self, workload: str, key: str, change) -> dict:
        sizes = WL.SIZES["tiny"][workload]
        saved = sizes[key]
        sizes[key] = change(saved)
        try:
            return tiny(workload, traced=False)
        finally:
            sizes[key] = saved

    def test_search_class_count(self):
        def bump_first(cases):
            return (dataclasses.replace(cases[0], classes=cases[0].classes + 1),) + cases[1:]
        result = self.corrupt("search", "cases", bump_first)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_canonical_form_invariants(self):
        g = WL.graphs.turan(9, 3)
        form = WL.graphs.canonical_form(g)
        self.assertEqual(WL.form_invariants(form), WL.graph_invariants(g))
        row = int.from_bytes(form[1:9], "little")
        dropped = (row & (row - 1)).to_bytes(8, "little")
        self.assertNotEqual(WL.form_invariants(form[:1] + dropped + form[9:]),
                            WL.graph_invariants(g))

    def test_verify_digest(self):
        result = self.corrupt("verify", "sha256", lambda digest: "0" * 64)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        bare = os.path.join(run.OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "search",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
