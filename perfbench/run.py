#!/usr/bin/env python3
"""Builds and runs the end-to-end replay benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <cohort|flash_churn|handover_chaos>
                             --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/ as a Release CMake project in the build directory
($CARGO_TARGET_DIR, default .bench_build), builds it incrementally, runs the
e2e_replay binary with the same arguments and relays its output; the last
stdout line is the result JSON. Each run's provenance and result are appended
to <build dir>/results.jsonl. Exits non-zero when the sources are missing,
the build fails, or the benchmark reports a failed check.
"""
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus one repetition and the oracle replay.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """subprocess.run that kills the child, and waits for it, when the
    timeout expires or this process is interrupted or terminated."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                fail(f"timed out after {timeout} s: {' '.join(cmd)}")
            raise
        return proc.returncode, out, err


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    code, out, _ = run(["git", "-C", ROOT, "rev-parse", "HEAD"], 30,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return out.strip() if code == 0 else "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "driver",
                                       "event_loop.hpp")):
        fail(f"arvis sources not found under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "e2e_replay", "-j", jobs],
    ]
    for cmd in steps:
        code, out, _ = run(cmd, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if code != 0:
            sys.stderr.write(out)
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "e2e_replay")


def main():
    # SIGTERM unwinds like Ctrl-C, so run() stops the child before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    code, out, _ = run([binary, *sys.argv[1:], "--git-sha", git_sha()],
                       RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    provenance = next((line[len("provenance "):] for line in lines
                       if line.startswith("provenance ")), None)
    if code == 0 and provenance is not None:
        record = {"provenance": json.loads(provenance),
                  "result": json.loads(lines[-1])}
        with open(os.path.join(build_dir, "results.jsonl"), "a") as f:
            f.write(json.dumps(record) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
