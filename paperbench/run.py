#!/usr/bin/env python3
"""Build and run the paper-plan benchmark.

Usage (from the repository root):

    python3 paperbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                              [--perturb]

Builds the library from src/ together with the benchmark (Release) in its own
build tree, $CARGO_TARGET_DIR/paperbench (default .bench_build/paperbench),
then runs one workload in one process. The binary checks the arguments and
pins the environment it measures in; in traced mode it reports the per-layer
metrics BENCHMARK.json lists. Build output goes to stderr; the last line of
stdout is the benchmark's JSON report. Exits non-zero when the build or the
run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir, env):
    """Configure once, then build incrementally. Returns the binary path."""
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True, stdout=sys.stderr,
                   env=env)
    return os.path.join(build_dir, "paperbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True)
    ap.add_argument("--perturb", action="store_true",
                    help="self-check: perturb one result; the run must report correct=false")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "paperbench")
    # Compiler and program temporaries stay inside the build root too.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        binary = build(bench_dir, build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"paperbench: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--scratch", build_root]
    if args.trace != "0":
        try:
            with open(os.path.join(bench_dir, os.pardir, "BENCHMARK.json")) as f:
                per_layer = json.load(f)["per_layer"]
        except (OSError, ValueError, KeyError) as e:
            print(f"paperbench: cannot read the per-layer metrics: {e}", file=sys.stderr)
            return 2
        cmd += ["--per-layer", ",".join(f"{m['name']}:{m['unit']}" for m in per_layer)]
    if args.perturb:
        cmd.append("--perturb")
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("paperbench: run timed out", file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
