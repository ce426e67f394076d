#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at a scale that runs in about a minute.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py in its tiny mode, untraced and
traced, and asserts that the result line has exactly the contract's keys,
that every metric BENCHMARK.json names is printed with its unit, and that
all outputs passed their checks. It then checks that the quality metrics
repeat exactly for a fixed seed, and that a release with one flipped cell
is caught by the output check and counted as a failed job.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, trace, *extra):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
                          timeout=600)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError("%s exited %d: %s" % (" ".join(argv[1:]), done.returncode,
                                                   done.stderr.decode()[-2000:]))
    record = json.loads(lines[-2][len("record "):]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), record


def check_result(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label + ": result keys"
    assert result["correct"] is True, label + ": outputs failed their checks"
    assert result["failed"] == 0 and result["attempted"] >= 1, label + ": attempted/failed"
    names = [m["name"] for m in wanted]
    assert sorted(result["metrics"]) == sorted(names), label + ": metric names"
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], label + ": unit of " + metric["name"]
        value = entry["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), label + ": value"
        assert math.isfinite(value), label + ": " + metric["name"] + " is not finite"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    quality = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            try:
                result, record = run(workload, trace)
                check_result(result, wanted, label)
                if trace == 0:
                    stars = result["metrics"]["stars_per_row"]["value"]
                    quality[workload] = (stars, record["kl_mean"])
                print("ok   " + label, flush=True)
            except AssertionError as error:
                failures += 1
                print("FAIL %s" % error, flush=True)

    label = "oneshot_csv_1m repeats stars_per_row and kl_mean for a fixed seed"
    try:
        result, record = run("oneshot_csv_1m", 0)
        again = (result["metrics"]["stars_per_row"]["value"], record["kl_mean"])
        assert again == quality.get("oneshot_csv_1m"), label
        print("ok   " + label, flush=True)
    except AssertionError as error:
        failures += 1
        print("FAIL %s" % error, flush=True)

    label = "a flipped release cell is caught and counted"
    try:
        result, _ = run("oneshot_csv_1m", 0, "--corrupt-one")
        assert result["correct"] is False and result["failed"] == 1, label
        print("ok   " + label, flush=True)
    except AssertionError as error:
        failures += 1
        print("FAIL %s" % error, flush=True)

    print("%d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
