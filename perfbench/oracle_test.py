#!/usr/bin/env python3
"""Negative test of the benchmark's correctness oracle.

Usage, from the root of the repository:

    python3 perfbench/oracle_test.py

Runs the benchmark against references that are wrong on purpose: a
discrete-event fingerprint altered by one event, a reference that records
no fingerprint for the seed, and an altered campaign digest. Every run
must print a result record with correct = false and failed > 0, and exit
with a code other than 0. The real reference must pass. Exits 0 when the
oracle behaves so, 1 otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

WORK = os.path.join(".perfbench-work", f"oracle-test-{os.getpid()}")
SEED = "1"


def altered(lines, prefix, edit):
    """The reference with the line starting with `prefix` edited."""
    out = []
    for line in lines:
        if line.startswith(prefix):
            line = edit(line)
            if line is None:
                continue
        out.append(line)
    return out


def bump_events(line):
    return re.sub(r"events=(\d+)", lambda m: f"events={int(m.group(1)) + 1}", line)


def bump_digest(line):
    return re.sub(r"bytes=(\d+)", lambda m: f"bytes={int(m.group(1)) + 1}", line)


def run_with(name, lines, workload):
    """Runs `workload` against `lines`; returns (exit code, record or None)."""
    path = os.path.join(WORK, f"{name}.txt")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    cmd = [bench.binary([]), "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", "0", "--reference", path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        record = json.loads(last[0])
    except ValueError:
        record = None
    return proc.returncode, record


def main():
    if not bench.build():
        return 1
    with open(os.path.join(HERE, "reference.txt")) as f:
        lines = f.read().splitlines()
    des = f"fig5_baseline {SEED} "
    cases = [
        ("recorded", lines, "fig5_baseline", True),
        ("altered", altered(lines, des, bump_events), "fig5_baseline", False),
        ("unrecorded", altered(lines, des, lambda _: None), "fig5_baseline", False),
        ("altered-digest", altered(lines, "quick_campaign * ", bump_digest),
         "quick_campaign", False),
    ]
    os.makedirs(WORK)
    failures = 0
    try:
        for name, reference, workload, should_pass in cases:
            code, record = run_with(name, reference, workload)
            if should_pass:
                ok = code == 0 and record is not None and record["correct"] \
                    and record["failed"] == 0
            else:
                ok = code != 0 and record is not None and not record["correct"] \
                    and record["failed"] > 0
            summary = record and {k: record[k] for k in ("correct", "attempted", "failed")}
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {workload} exit {code} {summary}")
            failures += not ok
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(".perfbench-work")
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
