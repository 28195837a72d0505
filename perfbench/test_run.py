"""Self-tests for the benchmark definition and run.py's result handling.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkDefinition(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def test_top_level_shape(self):
        b = self.bench
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        with open(os.path.join(HERE, "..", "BENCHMARK.json"), "rb") as f:
            self.assertLessEqual(len(f.read()), 64 * 1024)

    def test_workloads_match_the_runner(self):
        # The measured workloads are some of the runner's, in its order;
        # the traced run covers all of them.
        workloads = self.bench["workloads"]
        names = [w["name"] for w in workloads]
        self.assertTrue(2 <= len(names) <= 8)
        self.assertEqual(names, [w for w in run.WORKLOADS if w in names])
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metric_name_grammar(self):
        names = []
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        self.assertTrue(1 <= len(self.bench["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.bench["per_layer"]) <= 128)
        for bad in ("", "_x", "a b", "µs", "a" * 65):
            self.assertNotRegex(bad, NAME)

    def test_setup_time_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_every_workload_reports_its_per_layer_metrics(self):
        prefixes = {m["name"].split(".", 1)[0] for m in self.bench["per_layer"]}
        self.assertEqual(prefixes, set(run.WORKLOADS))


class ResultHandling(unittest.TestCase):
    def result(self, correct, attempted, metrics):
        return {"correct": correct, "attempted": attempted, "failed": 0,
                "metrics": {k: {"value": v, "unit": "us"} for k, v in metrics.items()}}

    def test_result_is_the_last_line(self):
        line = json.dumps(self.result(True, 3, {"a.x_us": 1.5}))
        self.assertEqual(run.result_of(["metric a.x_us 1.5", line])["attempted"], 3)
        self.assertIsNone(run.result_of([]))
        self.assertIsNone(run.result_of([line, "CHECK FAILED: x"]))

    def test_merge_folds_traced_workloads(self):
        merged = run.merge([
            self.result(True, 3, {"a.x_us": 1.0}),
            self.result(False, 4, {"b.y_us": 2.0}),
        ])
        self.assertEqual(set(merged), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(merged["correct"])
        self.assertEqual(merged["attempted"], 7)
        self.assertEqual(set(merged["metrics"]), {"a.x_us", "b.y_us"})
        self.assertTrue(run.merge([self.result(True, 1, {})])["correct"])


if __name__ == "__main__":
    unittest.main()
