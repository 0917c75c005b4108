#!/usr/bin/env python3
"""Check perfbench's deterministic work counters against the last record.

Run from the repository root:

    python3 tools/bench_counters.py

Runs the traced benchmark replay

    python3 perfbench/run.py --workload paper-sweep --seed 1 --trace 1

reads the JSON object on the last line of its output, and requires each
counter in COUNTERS to equal the value in the latest record of
BENCH_perfbench.json (its per_layer_change.metrics) exactly. The counters
count simulated or modelled work, so they do not depend on the host; wall
clock is recorded in that file but never checked here. A change that moves
a counter appends a record with the new values and says why.

Exit status: 0 when every counter matches, 1 on a mismatch, 2 when the
benchmark or the record cannot be read.
"""

import json
import subprocess
import sys

RECORD_FILE = "BENCH_perfbench.json"
COMMAND = ["python3", "perfbench/run.py", "--workload", "paper-sweep",
           "--seed", "1", "--trace", "1"]
COUNTERS = (
    "crypto.ctr_ops",
    "crypto.cbc_ops",
    "scheme.opens",
    "sim.cycles",
    "sim.insts",
    "sim.budget_exhausted",
    "campaign.trials",
    "campaign.minimize_runs",
)


def fail(message):
    print("bench_counters: " + message, file=sys.stderr)
    sys.exit(2)


def recorded_counters():
    try:
        with open(RECORD_FILE) as f:
            records = json.load(f)["records"]
        return records[-1]["per_layer_change"]["metrics"]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        fail("cannot read the latest record of %s: %r" % (RECORD_FILE, e))


def measured_counters():
    run = subprocess.run(COMMAND, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        fail("%s exited %d" % (" ".join(COMMAND), run.returncode))
    lines = run.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])["metrics"]
    except (ValueError, KeyError, IndexError, TypeError) as e:
        fail("no JSON result on the last line of the benchmark output: %r" % e)


def main():
    recorded = recorded_counters()
    measured = measured_counters()
    mismatches = 0
    for name in COUNTERS:
        want = recorded.get(name)
        got = measured.get(name, {}).get("value")
        # The record holds exact integers; a rounded float cannot gate.
        if isinstance(want, bool) or not isinstance(want, int):
            print("%s: recorded %r is not an exact integer" % (name, want))
            mismatches += 1
        elif got != want:
            print("%s: recorded %d, measured %r" % (name, want, got))
            mismatches += 1
    if mismatches:
        print("bench_counters: %d of %d counters do not match the latest "
              "record in %s" % (mismatches, len(COUNTERS), RECORD_FILE))
        return 1
    print("bench_counters: all %d counters match the latest record"
          % len(COUNTERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
