#!/usr/bin/env python3
"""Show that every correctness check of the benchmark can fail.

Usage (from the repository root):  python3 paperbench/selfcheck.py

For each workload, one run perturbs a single production result after it is
produced -- a sweep row's seconds, one executed buffer element, one select
reply -- and must come out correct=false with at least one failed operation;
one traced run must come out correct=true with none (its sweep rows are
compared with the untraced engine's). The workloads are those BENCHMARK.json
names. Exits 0 when every expectation holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace, perturb):
    """(correct, failed) of one run, or None when it did not report."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", "1", "--trace", str(trace)]
    if perturb:
        cmd.append("--perturb")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    report = json.loads(lines[-1])
    return report["correct"], report["failed"]


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for w in workloads:
        for trace, perturb in ((0, True), (1, False)):
            got = run(w, trace, perturb)
            good = got is not None and got[0] is not perturb and (got[1] > 0) is perturb
            ok &= good
            what = "perturbed" if perturb else "traced"
            want = "correct=false, failed>0" if perturb else "correct=true, failed=0"
            print(f"{'ok  ' if good else 'FAIL'} {w:12s} {what:9s} (correct, failed)={got} "
                  f"(want {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
