#!/usr/bin/env python3
"""Smoke test of the deddb benchmark.

Runs every workload briefly (--smoke), untraced and traced, and asserts that
each run prints the result line the benchmark contract asks for, with every
metric BENCHMARK.json names and its unit, and that every correctness oracle
of the workload ran and passed. Also checks that a directory holding only
the benchmark (no sources) fails without printing a result.

    python3 perfbench/smoke_test.py [path/to/deddb_perfbench]

Without a path it builds the binary through perfbench/run.py. ctest runs it
with the path (see CMakeLists.txt).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ORACLES = {
    "oltp_wire": [
        "final_state_matches_model",
        "read_own_person_matches_last_ack",
        "read_unwritten_person_matches_seed",
        "tokened_writes_applied_exactly_once",
    ],
    "update_pipeline": [
        "final_state_matches_model",
        "materialized_unemp_equals_rederivation",
        "process_verdict_matches_intent",
        "translation_has_alternative",
    ],
    "cdc_fanout": [
        "final_state_matches_model",
        "no_gap_events",
        "replica_and_views_caught_up",
        "replica_base_facts_equal_primary",
        "subview_apply_exact",
        "subview_equals_primary",
        "writes_commit_in_order",
    ],
}


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(binary, workload, trace, scratch):
    args = [binary, "--workload", workload, "--seed", "7", "--seconds",
            "3" if trace else "2", "--trace", str(trace), "--smoke",
            "--results", os.path.join(scratch, "results"),
            "--work", os.path.join(scratch, "work")]
    done = subprocess.run(args, capture_output=True, text=True, timeout=180)
    where = "%s trace=%d" % (workload, trace)
    if done.returncode != 0:
        fail("%s exited %d:\n%s%s" % (where, done.returncode,
                                      done.stdout[-3000:], done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (where, result["correct"],
                                           result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%s" % (where, result["attempted"]))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    if len(sys.argv) > 1:
        binary = os.path.abspath(sys.argv[1])
    else:
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", "none"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        binary = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
            "perfbench", "deddb_perfbench")
    workloads = [w["name"] for w in contract["workloads"]]
    if sorted(workloads) != sorted(ORACLES):
        fail("BENCHMARK.json workloads %s" % workloads)

    scratch = tempfile.mkdtemp(prefix="perfbench-smoke-", dir=os.getcwd())
    try:
        for workload in workloads:
            for trace, listed in ((0, contract["end_to_end"]),
                                  (1, contract["per_layer"])):
                metrics = run(binary, workload, trace, scratch)["metrics"]
                names = [m["name"] for m in listed]
                if list(metrics) != names:
                    fail("%s trace=%d metrics %s, expected %s" %
                         (workload, trace, list(metrics), names))
                for m in listed:
                    got = metrics[m["name"]]
                    if got["unit"] != m["unit"] or not isinstance(
                            got["value"], (int, float)):
                        fail("%s: metric %s is %s" % (workload, m["name"], got))
                    if trace == 0 and got["value"] <= 0:
                        fail("%s: end-to-end %s is %s" %
                             (workload, m["name"], got["value"]))
                record = os.path.join(scratch, "results", "%s-seed7-trace%d.json"
                                      % (workload, trace))
                with open(record) as f:
                    oracles = json.load(f)["oracles"]
                expected = ORACLES[workload] + (["replay_ran"] if trace else [])
                for name in expected:
                    entry = oracles.get(name)
                    if not entry or entry["checks"] < 1 or entry["failures"]:
                        fail("%s trace=%d: oracle %s: %s" %
                             (workload, trace, name, entry))
                print("ok %s trace=%d (%d metrics, %d oracles)" %
                      (workload, trace, len(metrics), len(expected)))

        bad = subprocess.run([binary, "--workload", "nope", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True, timeout=60)
        if bad.returncode == 0 or bad.stdout.strip():
            fail("an unknown workload must fail without a result")

        # A directory with only the benchmark files must fail without a
        # result: the benchmark builds the program from the checkout.
        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        alone = subprocess.run(contract["command"] + [
            "--workload", workloads[0], "--seed", "1", "--seconds", "1",
            "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        if alone.returncode == 0 or alone.stdout.strip():
            fail("the benchmark alone must fail without a result")
        print("ok failure modes")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("PASS")


if __name__ == "__main__":
    main()
