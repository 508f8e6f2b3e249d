"""Self-tests of the benchmark itself (not part of the program's test suite).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json follows the metric definitions, that one short
traced run of every workload emits every named metric with correct outputs,
that traced and untraced passes produce identical output digests (the
wrappers change no number) and that the originals are restored, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def setUpModule():
    run.import_program()


class SpecTest(unittest.TestCase):
    def test_keys_and_bounds(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in SPEC[key]]
        self.assertTrue(all(NAME.match(n) for n in names), names)
        self.assertEqual(len(SPEC["per_layer"]), len({m["name"] for m in SPEC["per_layer"]}))

    def test_metrics_match_definitions(self):
        import metrics
        import workloads

        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
                         metrics.per_layer_names(workloads.TIMERS))


class WorkloadTest(unittest.TestCase):
    """One warm-up pass plus one untraced and one traced pass per workload."""

    def check_workload(self, name):
        result = run.measure(name, seed=5, seconds=0, trace=True, import_s=0.0)
        self.assertEqual(result["failures"], [])
        self.assertEqual(result["rerun_mismatch"], 0.0)
        self.assertGreater(result["outputs_compared"], 0)

        passes = {p["traced"]: p["digests"] for p in result["passes"][1:]}
        self.assertEqual(set(passes), {False, True})
        self.assertTrue(all(passes[True].values()))
        self.assertEqual(passes[True], passes[False])

        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                line = run.report({**result, "trace": trace})
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            expected = [m["name"] for m in SPEC[key]]
            self.assertEqual(list(line["metrics"]), expected)
            for metric in line["metrics"].values():
                self.assertTrue(math.isfinite(metric["value"]))
        self.assertGreater(result["end_to_end"]["wall_s"], 0.0)
        self.assertGreater(result["spans"], 0)
        self.assert_restored()
        return result["per_layer"]

    def assert_restored(self):
        from eulerlab import besov, grid, solver

        self.assertIs(besov.lp_norm_values, grid.lp_norm_values)
        for fn in (grid.lp_norm_values, solver._rhs, solver.Trajectory.save,
                   solver.Trajectory.load.__func__):
            self.assertFalse(hasattr(fn, "__wrapped__"), fn)

    def test_accept(self):
        layer = self.check_workload("accept")
        self.assertGreater(layer["grid.reduce.calls"], 0)
        self.assertGreater(layer["acceptance.besov_machinery_s"], 0.0)

    def test_sim2d(self):
        layer = self.check_workload("sim2d")
        self.assertEqual(layer["solver.run.calls"], 1)
        self.assertGreater(layer["solver.rhs.ns_per_cell"], 0.0)

    def test_cli2d(self):
        layer = self.check_workload("cli2d")
        self.assertGreater(layer["grid.csv_write.bytes"], 0)
        self.assertGreater(layer["conditions.bumps_built"], 0)
        self.assertGreater(layer["cli.oslip-check_s"], 0.0)


class RefusalTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sim2d", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
