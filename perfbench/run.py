#!/usr/bin/env python3
"""Build llhsc and its benchmark from source, then run one benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  Builds into .bench_build and
writes generated inputs, logs and traces under .bench_work; touches
nothing outside the checkout.  The last line of stdout is the result
object of perfbench/bench.exe; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TARGETS = ["./perfbench/bench.exe", "./perfbench/selftest.exe", "./perfbench/launch.exe",
           "./bin/main.exe"]
# Exit within 180 s of the start of a run, build excepted.
RUN_BUDGET_S = 175


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_commit():
    # Do not let git search above the checkout: it may not be a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """Digest of the checker's sources, identifying the code under test."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build():
    for need in ["dune-project", "lib", "bin", "perfbench/dune"]:
        if not os.path.exists(need):
            die("not a source checkout: %s is missing" % need)
    # The benchmark's executables exist only under the perfbench profile.
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
           "--profile", "perfbench"] + TARGETS
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        die("build failed: %s" % e)
    if done.returncode != 0:
        die("build failed (dune exit %d)" % done.returncode)


def exe(name):
    return os.path.abspath(os.path.join(BUILD_DIR, "default", name))


def run(cmd, budget):
    """Run cmd in its own process group; kill the group past the budget."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("run exceeded %d s; killed" % budget, 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        die("--workload is required")
    build()
    start = time.monotonic()
    if args.self_test:
        sys.exit(run([exe("perfbench/selftest.exe")], RUN_BUDGET_S))
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [exe("perfbench/bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--llhsc", exe("bin/main.exe"), "--work", os.path.abspath(WORK_DIR),
           "--commit", git_commit(), "--source-digest", source_digest()]
    sys.exit(run(cmd, RUN_BUDGET_S - (time.monotonic() - start)))


if __name__ == "__main__":
    main()
