#!/usr/bin/env python3
"""Self-tests of the benchmark (not part of ctest; the benchmark is a
package of its own). Builds perfbench_cell like run.py does, then:

  - observer effect: on every workload an untraced, a traced and (where
    available) a capture cell give the same exact signature —
    instructions, commits, aborts, invariant checksums, cluster
    fingerprint — and the capture's re-simulated counters equal the
    live run's (trace::CountersIdentical);
  - the correctness gate rejects a cell whose signature moved.

    python3 perfbench/test_perfbench.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = run.REFERENCE_SEEDS[0]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls.reference = run.load_reference()
        cls.cells = {}
        for w in run.WORKLOADS:
            modes = ["plain", "traced"]
            if w in run.CAPTURE_WORKLOADS:
                modes.append("capture")
            cls.cells[w] = [run.run_cell(cls.binary, w, SEED, m)[0]
                            for m in modes]

    def test_tracing_and_capture_leave_simulation_unchanged(self):
        for w, cells in self.cells.items():
            with self.subTest(workload=w):
                self.assertEqual(run.check_cells(cells, self.reference), [])
                if w in run.CAPTURE_WORKLOADS:
                    self.assertTrue(cells[-1]["resim_identical"])

    def test_default_seed_has_a_reference(self):
        for w in run.WORKLOADS:
            for seed in run.REFERENCE_SEEDS:
                self.assertIn(str(seed), self.reference.get(w, {}))

    def test_gate_rejects_a_moved_signature(self):
        cells = copy.deepcopy(self.cells["tpcb-hyper"])
        cells[1]["exact"]["instructions"] += 1
        self.assertTrue(run.check_cells(cells, self.reference))
        cells = copy.deepcopy(self.cells["tpcb-hyper"])
        for c in cells:
            c["exact"]["committed"] -= 1
            c["exact"]["aborted"] += 1
        self.assertTrue(run.check_cells(cells, self.reference))

    def test_traced_cell_reports_every_layer_metric_it_owns(self):
        spec = run.load_spec()
        names = {m["name"] for m in spec["per_layer"]}
        for w, cells in self.cells.items():
            produced = set(cells[1]["layers"]) | set(cells[1]["sim"])
            if len(cells) > 2:
                produced |= set(cells[2]["layers"])
            with self.subTest(workload=w):
                # Names a cell reports but BENCHMARK.json does not list.
                extra = produced - names - {"trace.events"}
                self.assertEqual(extra, set())


if __name__ == "__main__":
    unittest.main()
