#!/usr/bin/env python3
"""The repo benchmark.  Run from the root of the repository:

    python3 perfbench/run.py --workload engine-chaos --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

It builds perfbench/main.exe with dune, runs the workload's memory pass
in a fresh process, then its timed run in another, checks the outputs,
prints every metric by name with its unit and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its
per_layer ones (a layer the workload never calls reads 0 and is printed
as n/a), and the spans go to .perfbench/spans-<workload>.tsv.
Exits 1 when a correctness check fails, 2 when the benchmark cannot
build or run.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
# Each child gets this long; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            cmd + ["build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("cannot build: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def child(args):
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (" ".join(args[:3]), e))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(args[:3]), done.returncode))
    return json.loads(lines[-1])


def measure(spec, workload, seed, seconds, trace):
    """One workload: its fresh-process memory pass, then its timed run."""
    mem = child(["mem", "--workload", workload, "--seed", str(seed)])
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    spans = None
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        # one file per workload, replaced by each traced run
        spans = os.path.join(SPANS_DIR, "spans-%s.tsv" % workload)
        args += ["--spans", spans]
    run = child(args)

    measured = dict(mem["metrics"])
    measured.update(run["metrics"])
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer" if trace else "end_to_end"]
    checks = list(run["checks"])
    # every metric the program reports is declared, with its unit
    undeclared = sorted(n for n, v in measured.items()
                        if declared.get(n) != v["unit"] or not math.isfinite(v["value"]))
    checks.append({"check": "every reported metric is declared in BENCHMARK.json with its unit",
                   "ok": not undeclared, "detail": ", ".join(undeclared)})
    metrics, not_called = {}, []
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
        elif trace:
            not_called.append(m["name"])
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            checks.append({"check": "end-to-end metric %s is reported" % m["name"],
                           "ok": False, "detail": ""})

    print("%s seed=%d seconds=%s trace=%d rounds=%d attempted=%d failed=%d"
          % (workload, seed, seconds, trace, run["rounds"], run["attempted"], run["failed"]))
    for name, v in metrics.items():
        shown = "n/a (not called by this workload)" if name in not_called else repr(v["value"])
        print("  %-32s %s %s" % (name, shown, v["unit"]))
    for line in run["failures"]:
        print("  FAILED " + line)
    for c in checks:
        print("  check %-4s %s%s" % ("ok" if c["ok"] else "FAIL", c["check"],
                                     "" if c["ok"] or not c["detail"] else ": " + c["detail"]))
    if spans:
        print("  spans written to " + os.path.relpath(spans, ROOT))
    return {"correct": all(c["ok"] for c in checks), "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="Run the repo benchmark.")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    correct = True
    for w in names if a.workload == "all" else [a.workload]:
        result = measure(spec, w, a.seed, a.seconds, a.trace)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
