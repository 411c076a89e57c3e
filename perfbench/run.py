#!/usr/bin/env python3
"""Build and run one workload of the deskpar layer benchmark.

    python3 perfbench/run.py --workload suite|trace_cli|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
the deskpar libraries, the deskpar CLI (the `serve` daemon) and the
benchmark driver into .bench_build/perfbench; later calls reuse that
build. The driver's report goes to stdout, and its last line is one
JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when that line was printed. Results are
checked against the digests in perfbench/golden.txt; repeat.py
--write-golden rewrites that file after a deliberate behaviour change.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden.txt")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("suite", "trace_cli", "serve")
# The driver's own budget is --seconds plus three set-ups and a
# verification pass; anything past this is a hang.
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the two targets (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("deskpar sources not found under " + ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4",
           "--target", "perfbench_driver", "deskpar_cli"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_driver(args):
    """Run the driver in its own process group, so the serve daemon it
    spawns is stopped with it on a timeout."""
    os.makedirs(RUNS, exist_ok=True)
    workdir = os.path.join(RUNS, "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--deskpar", os.path.join(BUILD, "tools", "deskpar"),
           "--workdir", workdir, "--setups", str(args.setups)]
    if args.golden_out:
        cmd += ["--golden-out", os.path.abspath(args.golden_out)]
    else:
        cmd += ["--golden", GOLDEN]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups per run; setup_s is their median")
    parser.add_argument("--golden-out", default="",
                        help="write this run's reference digests to a "
                        "file instead of checking them against golden.txt")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.setups < 1:
        parser.error("seed must be >= 0, seconds and setups positive")

    if not build():
        log("build failed")
        return 1
    code, out = run_driver(args)
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if code != 0 or not isinstance(result, dict):
        sys.stderr.write(out)
        log("driver failed (exit %s)" % code)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
