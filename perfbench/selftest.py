#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at a reduced input size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced at --scale 0.05 and asserts that the run passes its correctness
gate and that the result line carries exactly the declared metrics, each
with its declared unit. It then corrupts the first cell's reference
digest and asserts that the gate catches it: a non-zero exit, "correct":
false and failed jobs. Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seed", "3", "--seconds", "1", "--scale", "0.05"]


def run(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check(condition, message, output=""):
    if not condition:
        print("FAIL: " + message)
        if output:
            print(output[-4000:])
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            code, result, output = run(["--workload", workload, "--trace",
                                        trace] + SMALL)
            what = "%s --trace %s" % (workload, trace)
            check(code == 0 and result is not None, what + " exited %d" % code,
                  output)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, what + ": bad result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, what + ": gate failed", output)
            metrics = result["metrics"]
            check(set(metrics) == set(declared[trace]),
                  what + ": metrics differ from BENCHMARK.json: %s" %
                  sorted(set(metrics) ^ set(declared[trace])))
            for name, unit in declared[trace].items():
                value = metrics[name]
                check(value["unit"] == unit and
                      isinstance(value["value"], (int, float)),
                      what + ": bad metric %s: %s" % (name, value))
            print("ok   %s (%d jobs)" % (what, result["attempted"]))

        code, result, output = run(["--workload", workload, "--trace", "0",
                                    "--corrupt-digest"] + SMALL)
        what = workload + " --corrupt-digest"
        check(code != 0, what + ": a corrupted digest exited 0", output)
        check(result is not None and result["correct"] is False and
              result["failed"] > 0, what + ": not reported as failed",
              output)
        print("ok   %s caught (%d of %d jobs failed)" %
              (what, result["failed"], result["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
