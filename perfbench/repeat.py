#!/usr/bin/env python3
"""Smoke and steadiness checks for the deskpar layer benchmark.

    python3 perfbench/repeat.py --smoke
        Every workload at two seeds, briefly, untraced and traced:
        checks that the metric names and units are exactly the ones
        BENCHMARK.json lists and that ok_ratio is 1.0.

    python3 perfbench/repeat.py --runs 10 [--sets 2] [--workloads ...]
        Runs each workload once per seed (seeds 1..N) and prints, per
        end-to-end metric, the median, the quartiles and the spread
        (Q3 - Q1) / median next to the metric's bound. With --sets 2
        it repeats the runs and prints how far each median moved in
        the metric's worse direction. Every figure is marked "ok" when
        it is inside the bound.

    python3 perfbench/repeat.py --write-golden
        Rewrites perfbench/golden.txt, the reference digests every run
        is checked against, from this checkout's results at seeds 1
        and 2. Only for a deliberate change of the program's results.

Run from the repository root; every run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, setups=None, golden_out=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setups:
        cmd += ["--setups", str(setups)]
    if golden_out:
        cmd += ["--golden-out", golden_out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d: run.py exited %d"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def check_names(result, expected, what):
    """Exact metric names and units; returns a list of problems."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append("%s: missing %s" % (what, name))
        elif name not in want:
            problems.append("%s: unlisted %s" % (what, name))
        elif got[name] != want[name]:
            problems.append("%s: %s unit %s, expected %s"
                            % (what, name, got[name], want[name]))
    return problems


def smoke(spec, workloads, seeds, seconds):
    problems = []
    for workload in workloads:
        for seed in seeds:
            for trace, expected in ((0, spec["end_to_end"]),
                                    (1, spec["per_layer"])):
                what = "%s seed %d trace %d" % (workload, seed, trace)
                result = run_once(workload, seed, seconds, trace, setups=1)
                problems += check_names(result, expected, what)
                if not result["correct"] or result["failed"]:
                    problems.append("%s: correct=%s failed=%d"
                                    % (what, result["correct"],
                                       result["failed"]))
                if trace == 0:
                    ok = result["metrics"]["ok_ratio"]["value"]
                    if ok != 1.0:
                        problems.append("%s: ok_ratio %r" % (what, ok))
                    print("%s:" % what)
                    for name, m in result["metrics"].items():
                        print("  %-14s %14.6g %s" % (name, m["value"],
                                                     m["unit"]))
                else:
                    print("%s: %d per-layer metrics, %d ops"
                          % (what, len(result["metrics"]),
                             result["attempted"]))
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def run_set(workload, names, runs, seed0, seconds):
    values = {name: [] for name in names}
    failed = 0
    for i in range(runs):
        result = run_once(workload, seed0 + i, seconds, 0)
        failed += result["failed"] + (0 if result["correct"] else 1)
        for name in names:
            values[name].append(result["metrics"][name]["value"])
        print("  %s seed %d: %s" % (
            workload, seed0 + i,
            " ".join("%s=%.5g" % (n, values[n][-1]) for n in names)),
            flush=True)
    return values, failed


def spreads(spec, workloads, runs, seed0, seconds, sets):
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    worst = (0.0, "")
    inside = True
    for workload in workloads:
        first = {}
        for n in range(sets):
            values, failed = run_set(workload, names, runs, seed0, seconds)
            print("%s set %d: %d runs, %d failures"
                  % (workload, n + 1, runs, failed))
            print("  %-12s %12s %12s %12s %8s %6s %7s %9s"
                  % ("metric", "median", "q1", "q3", "spread", "bound",
                     "/bound", "shift"))
            inside = inside and failed == 0
            for m in metrics:
                name, bound = m["name"], m["bound"]
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med if med else float("inf")
                ratio = spread / bound
                ok = spread <= bound
                worst = max(worst, (ratio, "%s %s" % (workload, name)))
                shift = ""
                if n == 0:
                    first[name] = med
                else:
                    # How far the median moved in the worse direction.
                    worse = (med - first[name]) / first[name]
                    if m["better"] == "higher":
                        worse = -worse
                    ok = ok and worse <= bound
                    shift = "%+8.2f%%" % (100 * worse)
                inside = inside and ok
                print("  %-12s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %7.2f"
                      " %9s %s"
                      % (name, med, q1, q3, 100 * spread, 100 * bound,
                         ratio, shift, "ok" if ok else "OUTSIDE BOUND"),
                      flush=True)
    print("worst spread/bound, setup_s included: %.2f (%s; steady below"
          " 0.33)" % worst)
    print("every spread and shift inside its bound: %s"
          % ("yes" if inside else "NO"))
    return 0 if inside else 1


def write_golden(workloads):
    """Reference digests at seeds 1 and 2, into perfbench/golden.txt."""
    scratch = os.path.join(ROOT, ".bench_build", "golden")
    os.makedirs(scratch, exist_ok=True)
    lines = []
    for workload in workloads:
        for seed in (1, 2):
            out = os.path.join(scratch, "%s-%d.txt" % (workload, seed))
            run_once(workload, seed, 1, 0, setups=1, golden_out=out)
            with open(out) as f:
                lines += f.read().splitlines()
    path = os.path.join(HERE, "golden.txt")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote %d digests to %s" % (len(lines), path))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    if args.write_golden:
        return write_golden(workloads)
    if args.smoke:
        return smoke(spec, workloads, (args.seed0, args.seed0 + 1),
                     args.seconds or 2)
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs for quartiles")
    return spreads(spec, workloads, args.runs, args.seed0,
                   args.seconds or spec["run_seconds"], args.sets)


if __name__ == "__main__":
    sys.exit(main())
