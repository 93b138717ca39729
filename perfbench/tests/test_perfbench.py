"""Tests of the service benchmark itself (not of GRED).

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout. They build the driver like run.py
does (the first test pays the build) and use --smoke runs: a 64-switch
substrate and a few thousand ops, which check the output contract, not
performance.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The workloads of BENCHMARK.json, plus churn: gredbench still runs it,
# though it is not measured (see perfbench/README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["churn"]


def run(*extra, cwd=ROOT, workload="uniform", seed=7, trace="0"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace,
           "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def stamp_of(lines):
    for line in lines:
        if line.startswith("# stamp "):
            return json.loads(line[len("# stamp "):])
    raise AssertionError("no stamp line")


class Schema(unittest.TestCase):
    def check_result(self, res, expected):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertIsInstance(res["attempted"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_every_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                done = run(workload=name)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                res, lines = result_of(done)
                self.check_result(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                stamp = stamp_of(lines)
                for key in ("compiler", "build_type", "nproc", "cpu_model",
                            "seed", "clients", "stream_hash"):
                    self.assertIn(key, stamp)
                self.assertEqual(stamp["build_type"], "Release")
                self.assertTrue(any(line.startswith("# source ")
                                    for line in lines))

    def test_per_layer_every_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                done = run(workload=name, trace="1")
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                res, _ = result_of(done)
                self.check_result(res, SPEC["per_layer"])


class Determinism(unittest.TestCase):
    # Quality metrics that must repeat exactly for one seed.
    EXACT = ("success_rate", "stretch_mean", "load_max_avg",
             "model_delay_p50_ms", "model_delay_p99_ms")

    def test_same_seed_same_inputs_and_quality(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                a, la = result_of(run(workload=name, seed=11))
                b, lb = result_of(run(workload=name, seed=11))
                c, lc = result_of(run(workload=name, seed=12))
                self.assertEqual(stamp_of(la)["stream_hash"],
                                 stamp_of(lb)["stream_hash"])
                self.assertNotEqual(stamp_of(la)["stream_hash"],
                                    stamp_of(lc)["stream_hash"])
                self.assertEqual(a["attempted"], b["attempted"])
                for metric in self.EXACT:
                    self.assertEqual(a["metrics"][metric],
                                     b["metrics"][metric], metric)


class Comparator(unittest.TestCase):
    """The verdict rules of compare.py on synthetic runs."""

    def setUp(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        import compare
        self.verdict = compare.verdict
        self.metric = {"name": "ops_per_s", "better": "higher", "bound": 0.1}

    def test_gain_needs_nine_of_ten_and_a_gap_beyond_the_iqr(self):
        parent = [100.0 + i for i in range(10)]
        change = [120.0 + i for i in range(10)]
        self.assertEqual(self.verdict(self.metric, parent, change)[3], "gain")
        # Wins 8 of 10: no gain, and not worse either.
        change = [120.0 + i for i in range(8)] + [90.0, 90.0]
        self.assertNotEqual(self.verdict(self.metric, parent, change)[3],
                            "gain")

    def test_regression_beyond_the_bound(self):
        parent = [100.0 + 0.1 * i for i in range(10)]
        change = [80.0 + 0.1 * i for i in range(10)]
        self.assertEqual(self.verdict(self.metric, parent, change)[3],
                         "REGRESSION")
        change = [95.0 + 0.1 * i for i in range(10)]
        self.assertEqual(self.verdict(self.metric, parent, change)[3], "same")

    def test_wide_spread_is_unresolved(self):
        parent = [70.0, 130.0] * 5
        change = [68.0, 128.0] * 5
        self.assertEqual(self.verdict(self.metric, parent, change)[3],
                         "unresolved")


class Oracle(unittest.TestCase):
    def test_corrupted_expectation_fails_the_run(self):
        # Mutation: the benchmark's own version model is off by one for
        # one item; the payload oracle must notice and fail the run.
        for name in WORKLOADS:
            with self.subTest(workload=name):
                done = run("--corrupt-expectation", workload=name)
                self.assertNotEqual(done.returncode, 0)
                res, _ = result_of(done)
                self.assertIs(res["correct"], False)
                self.assertIn("CORRECTNESS FAILURE", done.stderr)

    def test_refuses_without_sources(self):
        # Only BENCHMARK.json and the benchmark's directories: nothing to
        # build, so no result and a non-zero exit.
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run(cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
