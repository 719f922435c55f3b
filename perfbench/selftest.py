#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload at toy size in both
modes and asserts that the result line has exactly the keys the
contract names, that every metric of BENCHMARK.json is present with its
unit, and that the outputs are correct. Then sabotages each output
check once (a flipped pixel, an altered sweep point, an altered replay)
and asserts that the run fails. Finally runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/ and asserts
that it exits nonzero without a result. Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Not in BENCHMARK.json, because its drain rate follows the host's CPU
# steal too closely to gate a change (see README.md). It is kept as the
# one workload that sheds sessions, so the shed-session check is tested.
EXTRA_WORKLOADS = ["serve_burst"]


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def fail(msg, proc=None):
    print("FAIL:", msg)
    if proc is not None:
        print(proc.stdout[-3000:])
        print(proc.stderr[-3000:])
    sys.exit(1)


def toy_args(workload, trace, corrupt=None):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--toy"]
    if corrupt:
        args += ["--corrupt", corrupt]
    return args


def check_result(bench, workload, trace):
    proc, result = run(toy_args(workload, trace))
    what = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0 or result is None:
        fail("%s exited %d" % (what, proc.returncode), proc)
    if set(result) != RESULT_KEYS:
        fail("%s result keys %s" % (what, sorted(result)))
    if result["correct"] is not True:
        fail("%s is not correct" % what, proc)
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail("%s attempted/failed %r/%r" %
             (what, result["attempted"], result["failed"]))
    want = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in want]
    if sorted(metrics) != sorted(names):
        fail("%s metrics %s, expected %s" %
             (what, sorted(metrics), sorted(names)))
    for m in want:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail("%s metric %s unit %r, expected %r" %
                 (what, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            fail("%s metric %s value %r" % (what, m["name"], got.get("value")))
        if not trace and got["value"] == 0:
            fail("%s end-to-end metric %s reads 0" % (what, m["name"]))
    if workload == "serve_burst" and trace and \
            not metrics["serve.shed"]["value"] > 0:
        fail("%s shed no session" % what, proc)
    print("ok   %-28s %d metrics" % (what, len(metrics)))


def check_sabotage(workload, trace, corrupt):
    proc, result = run(toy_args(workload, trace, corrupt))
    what = "%s --corrupt %s" % (workload, corrupt)
    if proc.returncode == 0:
        fail("%s exited 0: the check did not fire" % what, proc)
    if result is None or result.get("correct") is not False:
        fail("%s did not report correct=false" % what, proc)
    if "CHECK FAILED" not in proc.stdout:
        fail("%s printed no failed check" % what, proc)
    print("ok   %-28s check fired" % what)


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc, result = run(toy_args("serve_open", 0), cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        fail("a directory without sources did not fail", proc)
    print("ok   %-28s exits %d without a result" %
          ("bare directory", proc.returncode))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS
    for workload in workloads:
        for trace in (0, 1):
            check_result(bench, workload, trace)
    sabotage = [("sparw_orbit", 0, "sparw_frame"),
                ("sparw_orbit", 1, "sparw_redrive"),
                ("serve_open", 0, "serve_frame"),
                ("serve_burst", 0, "serve_shed_frame"),
                ("dse_sweep", 0, "dse_point"),
                ("dse_sweep", 0, "dse_replay")]
    for workload, trace, corrupt in sabotage:
        check_sabotage(workload, trace, corrupt)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
