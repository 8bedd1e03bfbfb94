#!/usr/bin/env python3
"""Self-test of the benchmark (smoke-sized runs, about three minutes).

    python3 perfbench/test_bench.py

Checks that a smoke run of every workload prints every named metric with
its unit, that two smoke runs with one seed agree on error rate, valid-plan
rate, plan-cost gap and result digest, and that the output check catches
deliberately corrupted results.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SMOKE_SECONDS = "1"


def smoke(workload, seed, trace, workdir=None):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", SMOKE_SECONDS,
            "--trace", str(trace)]
    if workdir:
        argv += ["--workdir", workdir]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    quality = [json.loads(line[len("quality "):]) for line in lines
               if line.startswith("quality ")]
    return done.returncode, json.loads(lines[-1]), quality[0], done.stderr


def check(workdir):
    binary = os.path.join(bench.build_dir(), "qqo_bench")
    done = subprocess.run([binary, "check", workdir], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    return json.loads(done.stdout)


def rewrite_first_op(workdir, edit):
    path = os.path.join(workdir, "results.jsonl")
    with open(path) as f:
        rows = [json.loads(line) for line in f]
    for row in rows:
        if row["phase"] == "op":
            edit(row)
            break
    with open(path, "w") as f:
        f.writelines(json.dumps(row) + "\n" for row in rows)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], bench.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         [row[:3] for row in bench.PER_LAYER])


class SeedTest(unittest.TestCase):
    def test_any_64_bit_seed_is_accepted(self):
        binary = os.path.join(bench.build_dir(), "qqo_bench")
        for seed in ("0", "4000000000", str((1 << 64) - 1)):
            with self.subTest(seed=seed), \
                    tempfile.TemporaryDirectory() as workdir:
                done = subprocess.run(
                    [binary, "gen", "serve_fresh", seed, "64", workdir],
                    stderr=subprocess.PIPE, text=True, timeout=120)
                self.assertEqual(done.returncode, 0, done.stderr)
                with open(os.path.join(workdir, "manifest.json")) as f:
                    self.assertEqual(json.load(f)["seed"], seed)

    def test_out_of_range_seed_is_refused(self):
        binary = os.path.join(bench.build_dir(), "qqo_bench")
        for seed in ("-1", str(1 << 64), "12x"):
            with self.subTest(seed=seed), \
                    tempfile.TemporaryDirectory() as workdir:
                done = subprocess.run(
                    [binary, "gen", "serve_fresh", seed, "64", workdir],
                    stderr=subprocess.DEVNULL, timeout=120)
                self.assertNotEqual(done.returncode, 0)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in bench.WORKLOADS:
            for trace, names in ((0, bench.END_TO_END),
                                 (1, bench.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _, err = smoke(workload, 5, trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: u for n, u, *_ in names},
                        {n: m["unit"] for n, m in result["metrics"].items()})
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_two_runs_with_one_seed_agree(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                first = smoke(workload, 9, 0)
                second = smoke(workload, 9, 0)
                self.assertEqual(first[0], 0, first[3])
                self.assertEqual(first[2], second[2])


class CorruptionTest(unittest.TestCase):
    def corrupted(self, workload, edit):
        with tempfile.TemporaryDirectory() as workdir:
            code, result, _, err = smoke(workload, 3, 0, workdir)
            self.assertEqual(code, 0, err)
            self.assertTrue(check(workdir)["correct"])
            rewrite_first_op(workdir, edit)
            return check(workdir)

    def test_wrong_serve_cost_is_caught(self):
        def edit(row):
            response = json.loads(row["response"])
            response["result"]["cost"] += 1.0
            row["response"] = json.dumps(response)
        self.assertFalse(self.corrupted("serve_fresh", edit)["correct"])

    def test_wrong_cli_plan_is_caught(self):
        def edit(row):
            # Query 0 owns plans 0 and 1: swap the one the QAOA solve chose.
            out = row["runs"][1]["stdout"]
            row["runs"][1]["stdout"] = out.replace(" 0:0 ", " 0:@ ").replace(
                " 0:1 ", " 0:0 ").replace(" 0:@ ", " 0:1 ")
            self.assertNotEqual(out, row["runs"][1]["stdout"])
        self.assertFalse(self.corrupted("device_paths", edit)["correct"])


if __name__ == "__main__":
    unittest.main()
