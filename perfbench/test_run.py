#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of the repository:

    python3 perfbench/test_run.py

1. The OCaml half (dune alias @perfbench/perfbench-test): the per-call
   decomposition of a chaos seed replays the harness's run_one.
2. Every workload, untraced and traced, on a short run: every metric
   printed, by name on its own line and in the final JSON, is the
   BENCHMARK.json list for that mode with its unit, and the per-layer
   metrics a workload measures are the ones perfbench/README.md's table
   says it reports.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The README's layer table, "On" column: what each workload measures.
BENCH = {"bench.trace_overhead", "bench.wall_ops_per_s", "bench.calibration_ms", "failed_frac"}
LAYERS = {
    "engine-chaos": BENCH | {
        "nemesis.generate_us", "runtime.run_us", "runtime.us_per_delivery",
        "runtime.words_per_delivery", "runtime.deliveries_per_seed",
        "wal.forces_per_seed", "wal.codec_ns_per_record", "chaos.oracles_us",
        "metrics.merge_us", "sweep.overhead_us", "gc.promoted_words_per_seed",
        "sweep.retained_words_per_seed"},
    "kv-chaos": BENCH | {
        "nemesis.generate_us", "chaos_db.run_schedule_us", "db.us_per_message",
        "db.messages_per_seed", "metrics.merge_us", "sweep.overhead_us",
        "gc.promoted_words_per_seed", "sweep.retained_words_per_seed"},
    "kv-load": BENCH | {
        "db.us_per_txn", "db.words_per_txn", "db.us_per_txn_scaling",
        "node.messages_per_txn", "kv_wal.forces_per_commit", "lock_table.wait_p99_s",
        "node.vote_phase_p50_s", "node.decision_phase_p50_s", "batch.size_mean",
        "batch.flushes_per_commit", "commit_p50_s", "commit_p99_s", "commits_per_sim_s"},
    "model-check": BENCH | {
        "rulebook.compile_ms", "model_check.states", "model_check.states_per_s",
        "model_check.words_per_state"},
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


class DecompositionTest(unittest.TestCase):
    def test_replays_run_one(self):
        done = subprocess.run(["dune", "build", "@perfbench/perfbench-test", "--force"],
                              cwd=ROOT, timeout=600)
        self.assertEqual(done.returncode, 0)


class NamesTest(unittest.TestCase):
    def check(self, workload, trace):
        s = spec()
        wanted = {m["name"]: m["unit"] for m in s["per_layer" if trace else "end_to_end"]}
        code, lines = bench(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        got = result["metrics"]
        self.assertEqual(set(got), set(wanted))
        for name, v in got.items():
            self.assertEqual(v["unit"], wanted[name], name)
        # the human-readable lines name the same metrics, with the same units
        printed = {}
        for line in lines[1:-1]:
            parts = line.split()
            if len(parts) >= 3 and parts[0] in wanted:
                printed[parts[0]] = (parts[-1], "n/a" in line)
        self.assertEqual(set(printed), set(wanted))
        for name, (unit, _) in printed.items():
            self.assertEqual(unit, wanted[name], name)
        if trace:
            measured = {n for n, (_, na) in printed.items() if not na}
            self.assertEqual(measured, LAYERS[workload])

    def test_every_workload(self):
        for w in [x["name"] for x in spec()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)


if __name__ == "__main__":
    unittest.main()
