#!/usr/bin/env python3
"""Contract tests for tools/trace_summary.py.

Pins the exit codes and the headline numbers the summarizer prints for a
synthetic two-rank trace, so the CI bench-smoke step that runs it after a
traced distributed_landau can't silently rot:

  0 -- summarized
  2 -- missing/unreadable/invalid-JSON input
  3 -- parseable JSON that is not a Chrome trace-event document
       (no traceEvents array, malformed X event, or zero X events)

Stdlib only: unittest + subprocess, same harness as
tests/test_compare_bench_eop.py.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "trace_summary.py"


def x(name, pid, ts, dur, tid=0):
    return {"ph": "X", "name": name, "pid": pid, "tid": tid, "ts": ts, "dur": dur,
            "cat": "zone"}


def two_rank_trace():
    # Rank 0: 100us step containing 30us of halo; rank 1: 200us step with
    # 20us of halo -> overall halo fraction 50/300, imbalance 200/150.
    events = [
        {"ph": "M", "name": "process_name", "pid": 0, "args": {"name": "rank 0"}},
        {"ph": "M", "name": "process_name", "pid": 1, "args": {"name": "rank 1"}},
        x("step", 0, 0.0, 100.0),
        x("halo:wait", 0, 10.0, 25.0),
        x("halo:pack", 0, 40.0, 5.0),
        x("step", 1, 0.0, 200.0),
        x("halo:wait", 1, 20.0, 20.0),
        x("vlasov:elc", 1, 50.0, 80.0),
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class TraceSummaryContract(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return path

    def run_tool(self, path, *extra):
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(path), *extra],
            capture_output=True,
            text=True,
        )

    def test_summarizes_two_rank_trace(self):
        proc = self.run_tool(self.write("t.json", two_rank_trace()))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("2 rank track(s)", proc.stdout)
        # Overall halo fraction 50us/300us and the 200/150 imbalance.
        self.assertIn("0.167", proc.stdout)
        self.assertIn("imbalance 1.33", proc.stdout)
        # Ranks are labeled from the process_name metadata.
        self.assertIn("rank 0", proc.stdout)
        self.assertIn("rank 1", proc.stdout)

    def test_top_zones_ordered_by_total_time(self):
        proc = self.run_tool(self.write("t.json", two_rank_trace()), "--top", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        zone_lines = [l for l in lines if "step" in l or "vlasov:elc" in l]
        # step (300us total) must be listed before vlasov:elc (80us); the
        # --top 2 cut drops the halo zones from the table entirely.
        self.assertTrue(any("step" in l for l in zone_lines), proc.stdout)
        self.assertLess(proc.stdout.index(" step"), proc.stdout.index("vlasov:elc"))
        self.assertNotIn("halo:pack", proc.stdout.split("halo fraction")[0])

    def test_span_share_divides_by_summed_rank_spans(self):
        # Rank 0 spans 0..100us, rank 1 spans 50..250us: 300us of rank
        # time, all of it inside step zones -> step is 100% of span, and
        # the 80us vlasov zone is 26.7%.
        events = [
            x("step", 0, 0.0, 100.0),
            x("step", 1, 50.0, 200.0),
            x("vlasov:elc", 1, 60.0, 80.0),
        ]
        proc = self.run_tool(self.write("t.json", {"traceEvents": events}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        step_line = next(l for l in proc.stdout.splitlines() if l.strip().startswith("step"))
        self.assertTrue(step_line.endswith("100.0%"), step_line)
        vlasov_line = next(l for l in proc.stdout.splitlines() if "vlasov:elc" in l)
        self.assertTrue(vlasov_line.endswith("26.7%"), vlasov_line)

    def test_bare_array_form_accepted(self):
        proc = self.run_tool(self.write("t.json", two_rank_trace()["traceEvents"]))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_missing_file_exits_2(self):
        proc = self.run_tool(self.dir / "nope.json")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("cannot read", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_invalid_json_exits_2(self):
        path = self.dir / "broken.json"
        path.write_text("{not json")
        proc = self.run_tool(path)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("not valid JSON", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_not_a_trace_document_exits_3(self):
        proc = self.run_tool(self.write("t.json", {"bench": "eop"}))
        self.assertEqual(proc.returncode, 3, proc.stderr)
        self.assertIn("no traceEvents", proc.stderr)

    def test_empty_trace_exits_3(self):
        proc = self.run_tool(self.write("t.json", {"traceEvents": []}))
        self.assertEqual(proc.returncode, 3, proc.stderr)
        self.assertIn("no complete", proc.stderr)

    def test_malformed_event_exits_3(self):
        doc = {"traceEvents": [{"ph": "X", "name": "step", "ts": 0.0}]}  # no dur
        proc = self.run_tool(self.write("t.json", doc))
        self.assertEqual(proc.returncode, 3, proc.stderr)
        self.assertIn("malformed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
