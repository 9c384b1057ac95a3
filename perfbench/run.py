#!/usr/bin/env python3
"""Builds the DMFSGD library and the perfbench binary from this checkout,
runs one workload, and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload train|serve|cluster --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --seconds S --overhead

The build goes to build-perfbench/ (Release, no sanitizers); run reports and
scratch files to build-perfbench/out/.  --overhead runs the workload once
untraced and once traced on the same seed and prints the tracing overhead
of every end-to-end metric.  Build logs and the binary's diagnostics go to
stderr.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no DMFSGD sources next to {HERE}; nothing to build")
        return False
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    for attempt in range(2):
        ok = (subprocess.run(configure, stdout=sys.stderr).returncode == 0
              and subprocess.run(compile_, stdout=sys.stderr).returncode == 0)
        if ok:
            return True
        if attempt == 0 and os.path.isdir(BUILD):
            # A cache left by another checkout or build type: start clean.
            log("build failed; retrying from an empty build directory")
            shutil.rmtree(BUILD)
    return False


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: names the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(ROOT, "src"), HERE]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("build"))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if not f.endswith(".pyc"))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, provenance):
    """Runs the binary; returns (exit code, last stdout line, out dir)."""
    out_dir = os.path.join(BUILD, "out", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", out_dir, "--commit", provenance[0],
               "--source-digest", provenance[1]]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None, out_dir
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else None), out_dir


def overhead(args, provenance):
    summaries = {}
    for trace in (0, 1):
        code, _, out_dir = run_once(args.workload, args.seed, args.seconds,
                                    trace, provenance)
        if code != 0:
            log(f"run with --trace {trace} failed")
            return 1
        with open(os.path.join(out_dir, "summary.json")) as handle:
            summaries[trace] = {m: v["value"] for m, v in
                                json.load(handle)["end_to_end"].items()}
    print(f"tracing overhead, workload {args.workload}, seed {args.seed}")
    print(f"{'metric':14s} {'untraced':>14s} {'traced':>14s} {'change':>8s}")
    for metric, plain in summaries[0].items():
        traced = summaries[1][metric]
        print(f"{metric:14s} {plain:14.6g} {traced:14.6g} "
              f"{(traced - plain) / plain:+8.2%}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve", "cluster"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    if not build():
        log("build failed")
        return 2
    provenance = (commit(), source_digest())
    if args.overhead:
        return overhead(args, provenance)

    code, last, _ = run_once(args.workload, args.seed, args.seconds,
                             args.trace, provenance)
    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"the binary printed no result (exit code {code})")
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
