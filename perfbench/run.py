#!/usr/bin/env python3
"""Build and run the hetero benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Builds `heterod` and the benchmark program from the checkout's sources
(CMake, into .bench_build/), then runs one workload.  The program's last
line of standard output is the JSON result; see perfbench/README.md.
Exits nonzero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds heterod + hetero_perfbench; build output
    goes to stderr so standard output carries only the benchmark's lines.
    Compiler temporaries go to .bench_build/tmp, inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "heterod", "hetero_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    binary = os.path.join(BUILD, "hetero_perfbench")
    # The benchmark's own checks (schedule generator, answer oracle) first.
    try:
        started = time.monotonic()
        selftest = subprocess.run([binary, "--selftest"], stdout=sys.stderr, timeout=60)
        log(f"self-test took {time.monotonic() - started:.1f} s")
    except subprocess.TimeoutExpired:
        selftest = None
    if selftest is None or selftest.returncode != 0:
        log("self-test failed")
        return 1
    heterod = os.path.join(BUILD, "hetero", "tools", "heterod")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--heterod", heterod, "--out", OUT, "--commit", commit()]
    # Own process group, so a timeout also stops any heterod it spawned.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    log(f"exit {code} after {time.monotonic() - started:.1f} s")
    sys.exit(code)
