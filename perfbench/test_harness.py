"""Tests of the benchmark script's own logic.

    python3 perfbench/test_harness.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

GOLDENS = [
    ("table1", "=== Table 1 ===\n\nname  value\ngsm   1\n"),
    ("table2", "=== Table 2 ===\n\nclusters  4\n"),
    ("fig6", "=== Figure 6 ===\n\nlocal  0.9\n"),
]


def all_output(goldens, log=True):
    """What `cvliw-bench --all` prints for these goldens: a blank line
    between experiments, "sweep: " lines after each banner."""
    parts = []
    for index, (_, text) in enumerate(goldens):
        banner, _, rest = text.partition("\n")
        sweep = (f"sweep: {index + 2} points ({index + 5} loop items) on 3 "
                 f"threads in {index + 0.5:.3f} s\n"
                 f"sweep: result cache 0 hits / 5 misses\n") if log else ""
        parts.append(banner + "\n" + sweep + rest)
    return "\n".join(parts)


class GoldenCheckTest(unittest.TestCase):
    def test_filter_drops_only_sweep_lines(self):
        text = "a\nsweep: x\n sweep: kept\nsweep:kept too\nb\n"
        self.assertEqual(harness.filter_sweep_lines(text),
                         "a\n sweep: kept\nsweep:kept too\nb\n")

    def test_matching_output_passes(self):
        self.assertEqual(harness.golden_failures(all_output(GOLDENS), GOLDENS), [])
        self.assertEqual(
            harness.golden_failures(all_output(GOLDENS, log=False), GOLDENS), [])

    def test_a_changed_table_fails_only_that_experiment(self):
        changed = all_output(GOLDENS).replace("clusters  4", "clusters  5")
        self.assertEqual(harness.golden_failures(changed, GOLDENS), ["table2"])

    def test_missing_and_extra_output_fail(self):
        truncated = all_output(GOLDENS)[:-len("local  0.9\n")]
        self.assertEqual(harness.golden_failures(truncated, GOLDENS), ["fig6"])
        extra = all_output(GOLDENS) + "stray\n"
        self.assertEqual(harness.golden_failures(extra, GOLDENS),
                         ["<unexpected trailing output>"])

class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "runLoop", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"name": "buildLoop", "start_ns": 10, "end_ns": 30, "parent": 0},
            {"name": "simulateKernel", "start_ns": 40, "end_ns": 90, "parent": 0},
        ]
        self_s = harness.self_times(spans)
        self.assertAlmostEqual(self_s["runLoop"], 30e-9)
        self.assertAlmostEqual(self_s["buildLoop"], 20e-9)
        self.assertAlmostEqual(harness.durations(spans)["runLoop"], 100e-9)

    def test_overlapping_children_are_counted_once(self):
        spans = [
            {"name": "request", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"name": "wait", "start_ns": 10, "end_ns": 60, "parent": 0},
            {"name": "wait", "start_ns": 50, "end_ns": 70, "parent": 0},
        ]
        self.assertAlmostEqual(harness.self_times(spans)["request"], 40e-9)


class MetricsParseTest(unittest.TestCase):
    def test_prometheus(self):
        text = ("# TYPE cvliw_frames_sent_total counter\n"
                "cvliw_frames_sent_total 42\n"
                'cvliw_stage_request_total_us{quantile="0.5"} 316\n'
                "cvliw_stage_request_total_us_sum 9000\n")
        series = harness.parse_prometheus(text)
        self.assertEqual(series["cvliw_frames_sent_total"], 42)
        self.assertEqual(series['cvliw_stage_request_total_us{quantile="0.5"}'], 316)
        self.assertEqual(series["cvliw_stage_request_total_us_sum"], 9000)

    def test_histogram_table(self):
        text = ("counters:\n  frames_sent   42\nhistograms:\n"
                "  name                count   p50(us)   p90(us)   p99(us)   max(us)\n"
                "  stage.loop_simulate    12       900      2000      5000      5100\n")
        hists = harness.parse_histogram_table(text)
        self.assertEqual(hists, {"stage.loop_simulate": {
            "count": 12, "p50": 900, "p90": 2000, "p99": 5000, "max": 5100}})


if __name__ == "__main__":
    unittest.main()
