"""Tests of the perfbench harness: statistics, rusage, failure counting.

    python3 perfbench/tests/test_harness.py

Needs no build: the failure-counting tests drive the harness against a
stand-in `experiments` script. Scratch files live under `.bench_run/` in
the checkout.
"""

import json
import stat
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness as h  # noqa: E402
import run  # noqa: E402

# Writes `--json` rows (all certified) and `--certificates` (all verified)
# like `experiments` does. The invocation whose number is in the file
# `corrupt_at` next to it writes a truncated rows file instead. An
# `--executor stepping` run takes a quarter second longer.
FAKE_EXPERIMENTS = """#!/usr/bin/env python3
import json, sys, time
from pathlib import Path
args = sys.argv[1:]
if "stepping" in args:
    time.sleep(0.25)
here = Path(__file__).parent
count = here / "count"
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
rows = [{"certified": True, "i": i} for i in range(3)]
text = json.dumps({"seed": int(args[args.index("--seed") + 1]), "rows": rows}, indent=2)
corrupt = here / "corrupt_at"
if corrupt.exists() and int(corrupt.read_text()) == n:
    text = text[: len(text) // 2]
Path(args[args.index("--json") + 1]).write_text(text)
if "--certificates" in args:
    certs = {"certificates": [{"verified": True}, {"verified": None}]}
    Path(args[args.index("--certificates") + 1]).write_text(json.dumps(certs))
print(json.dumps({"sweep.cell.count": 3.0, "sweep.cell.durations_s": [3e-6, 1e-6, 2e-6]}))
"""


class Statistics(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(h.percentile(values, 50), 50)
        self.assertEqual(h.percentile(values, 90), 90)
        self.assertEqual(h.percentile(values, 99.9), 100)
        self.assertEqual(h.percentile([7.0], 50), 7.0)

    def test_tail_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(h.tail_percentile([1.0] * 19))
        self.assertEqual(h.tail_percentile([1.0] * 20)[0], 50.0)
        self.assertEqual(h.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(h.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(h.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(h.tail_percentile(list(range(10000)))[0], 99.9)

    def test_cell_percentiles_in_microseconds(self):
        cells = h.cell_percentiles([i * 1e-6 for i in range(1, 101)])
        self.assertAlmostEqual(cells["sweep.cell.p50_us"], 50.0)
        self.assertAlmostEqual(cells["sweep.cell.tail_us"], 90.0)
        self.assertEqual(cells["sweep.cell.tail_pct"], 90.0)
        few = h.cell_percentiles([2e-6, 1e-6, 3e-6])
        self.assertAlmostEqual(few["sweep.cell.p50_us"], 2.0)
        self.assertEqual((few["sweep.cell.tail_us"], few["sweep.cell.tail_pct"]), (0.0, 0.0))
        self.assertEqual(set(h.cell_percentiles([]).values()), {0.0})

    def test_describe_states_the_median_and_sample_count(self):
        self.assertIn("median 3 s over 5 samples", h.describe([5.0, 1.0, 4.0, 2.0, 3.0], "s"))
        self.assertIn("median 2.5 s over 4 samples", h.describe([4.0, 1.0, 3.0, 2.0], "s"))
        self.assertIn("no percentile", h.describe([1.0, 2.0, 3.0], "s"))
        self.assertIn("p90", h.describe([float(i) for i in range(100)], "s"))


class Rusage(unittest.TestCase):
    def test_usage_adds_user_and_system_time_and_converts_kib(self):
        ru = types.SimpleNamespace(ru_utime=1.25, ru_stime=0.5, ru_maxrss=2048)
        self.assertEqual(h.usage(ru), (1.75, 2.0))

    def test_spawn_measures_the_child(self):
        with tempfile.TemporaryDirectory(dir=scratch_root()) as d:
            d = Path(d)
            burn = (
                "import sys\n"
                "block = bytearray(64 << 20)\n"
                "sum(i * i for i in range(2_000_000))\n"
                "sys.exit(3)\n"
            )
            sample = h.spawn([sys.executable, "-c", burn], d / "out", d / "err")
        self.assertEqual(sample.exit_code, 3)
        self.assertGreater(sample.cpu_s, 0.01)
        self.assertGreaterEqual(sample.wall_s, sample.cpu_s * 0.5)
        self.assertGreater(sample.peak_rss_mb, 64)


def scratch_root():
    root = BENCH.parent / ".bench_run"
    root.mkdir(exist_ok=True)
    return root


class FailureCounting(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(dir=scratch_root())
        self.root = Path(self.dir.name)
        self.exe = self.root / "fake" / "experiments"
        self.exe.parent.mkdir()
        self.exe.write_text(FAKE_EXPERIMENTS)
        self.exe.chmod(self.exe.stat().st_mode | stat.S_IXUSR)
        self.workload = h.Workload(
            args=("--experiment", "fake"), rows=3, certificates=True, seeded=True
        )

    def tearDown(self):
        self.dir.cleanup()

    def run_workload(self, corrupt_at=None, workload=None):
        if corrupt_at is not None:
            (self.exe.parent / "corrupt_at").write_text(str(corrupt_at))
        workload = workload or self.workload
        bench = run.Run(workload, 7, self.exe, self.exe, self.root / "work")
        bench.set_up()
        bench.measure(0)
        return bench

    def test_clean_runs_count_no_failure(self):
        bench = self.run_workload()
        self.assertEqual(bench.tally.attempted, h.SETUPS + h.MIN_TIMED)
        self.assertEqual(bench.tally.failed, 0)
        self.assertEqual(len(bench.samples), h.MIN_TIMED)

    def test_corrupted_output_is_a_failed_run(self):
        bench = self.run_workload(corrupt_at=h.SETUPS + 2)
        self.assertEqual(bench.tally.attempted, h.SETUPS + h.MIN_TIMED)
        self.assertEqual(bench.tally.failed, 1)
        self.assertEqual(bench.tally.error_rate, 1 / (h.SETUPS + h.MIN_TIMED))
        self.assertEqual(len(bench.rejected), 1)
        self.assertIn("differs from the reference", bench.tally.failures[0])

    def test_corrupted_reference_fails_its_content_check(self):
        bench = self.run_workload(corrupt_at=1)
        self.assertIn("unreadable rows", bench.tally.failures[0])
        # The next set-up becomes the reference; later runs match it.
        self.assertEqual(bench.tally.failed, 1)

    def test_traced_drive_must_reproduce_the_reference(self):
        bench = self.run_workload()
        layers = bench.trace(wall_s=0.0)
        self.assertEqual(bench.tally.failed, 0)
        self.assertEqual(layers["sweep.cell.count"], 3.0)
        self.assertAlmostEqual(layers["sweep.cell.p50_us"], 2.0)
        self.assertNotIn("sweep.cell.durations_s", layers)
        self.assertIn("trace.overhead_s", layers)
        (self.exe.parent / "corrupt_at").write_text(str(h.SETUPS + h.MIN_TIMED + 2))
        bench.trace(wall_s=0.0)
        self.assertEqual(bench.tally.failed, 1)
        self.assertIn("traced run: output differs", bench.tally.failures[0])

    def test_replay_reference_stays_out_of_setup_time(self):
        replay = h.Workload(args=("--experiment", "fake"), rows=3, replay=True, store=True)
        bench = self.run_workload(workload=replay)
        # One stepping reference, then the set-ups, then the timed runs.
        self.assertEqual(bench.tally.attempted, 1 + h.SETUPS + h.MIN_TIMED)
        self.assertEqual(bench.tally.failed, 0)
        self.assertEqual(len(bench.setups), h.SETUPS)
        self.assertLess(max(bench.setups), 0.25)

    def test_content_checks(self):
        rows = self.root / "rows.json"
        rows.write_text(json.dumps({"rows": [{"certified": True}, {"certified": False}]}))
        self.assertEqual(h.check_rows(rows, 2, certified=False), [])
        self.assertIn("1 rows not certified", h.check_rows(rows, 2, certified=True)[0])
        self.assertIn("expected 3", h.check_rows(rows, 3, certified=False)[0])
        certs = self.root / "certs.json"
        certs.write_text(json.dumps({"certificates": [{"verified": False}, {}]}))
        self.assertIn("1 certificates failed", h.check_certificates(certs)[0])

    def test_digest_tells_missing_from_empty(self):
        empty = self.root / "empty"
        empty.write_bytes(b"")
        self.assertNotEqual(h.digest([empty]), h.digest([self.root / "absent"]))


class BenchmarkSpec(unittest.TestCase):
    def test_every_workload_is_declared(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(h.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
