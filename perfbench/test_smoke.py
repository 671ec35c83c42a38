"""Smoke check: every workload at a tiny size, plus one traced pass each.

Asserts that no operation fails and that every metric named in
BENCHMARK.json is reported.  It is not a timing gate.  Run with

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {metric["name"] for metric in SPEC[section]}


class SmokeTest(unittest.TestCase):
    def _run(self, workload: str, trace: bool) -> dict:
        result, notes = run.run(workload, seed=7, seconds=0.0, trace=trace, tiny=True)
        self.assertEqual(notes["cases"], 1)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_workloads_match_the_spec(self) -> None:
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOAD_NAMES))

    def test_end_to_end_metrics(self) -> None:
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                metrics = self._run(workload, trace=False)
                self.assertEqual(set(metrics), _names("end_to_end"))
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_traced_pass(self) -> None:
        layers = {w: self._run(w, trace=True) for w in run.WORKLOAD_NAMES}
        for workload, metrics in layers.items():
            with self.subTest(workload=workload):
                self.assertEqual(set(metrics), _names("per_layer"))

        def value(workload: str, name: str) -> float:
            return layers[workload][name]["value"]

        # Each workload's role, as far as it holds at the tiny size.
        self.assertEqual(value("muddy-cli", "bisim.bisimilar.calls"), 0)
        self.assertGreater(value("muddy-cli", "actions.apply_sequence.total_s"), 0)
        self.assertGreater(value("survey-exhaust", "bisim.bisimilar.calls"), 0)
        self.assertEqual(value("survey-exhaust", "actions.apply_sequence.total_s"), 0)
        self.assertEqual(value("emulate-b40", "planner.solve_nfl.calls"), 0)
        self.assertGreater(value("emulate-b40", "actions.product_update.calls"), 0)


if __name__ == "__main__":
    unittest.main()
