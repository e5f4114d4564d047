#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run of one workload:

    python3 perfbench/run.py --workload hol-btree --seed 1 --seconds 25 --trace 0

Every workload once, with a table of the end-to-end metrics:

    python3 perfbench/run.py --all --seed 1

The benchmark's own tests:

    python3 perfbench/run.py --selftest

Run from the root of a checkout. The program is built from source into
.bench_build/ and every file a run writes goes under .bench_work/. The last
line of standard output of a single run is its JSON result; the exit code is
0 only when every output matched the oracle.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
TARGETS = ["perfbench", "gadget_cli", "perfbench_test"]
# Runnable and traced like the others, but not in BENCHMARK.json: its
# open-loop tail latencies vary too much between identical runs on the
# reference host to gate a change on them (see README.md).
UNGATED = ["incr-wire-open"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """Keeps compilers, the server and the stores writing inside the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    if "GADGET_GIT_DESCRIBE" not in env:
        git = "not a git checkout"
        if os.path.isdir(os.path.join(ROOT, ".git")):
            try:
                git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                     capture_output=True, text=True, timeout=30).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                pass
        env["GADGET_GIT_DESCRIBE"] = git or "unknown"
    return env


def build(env):
    """Configures (once) and builds the benchmark in Release; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env, timeout=600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", *TARGETS, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env, timeout=1500)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, env):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload=" + workload, "--seed=" + str(seed),
           "--seconds=" + str(seconds), "--trace=" + str(trace), "--workdir=" + WORK_DIR,
           "--gadget=" + os.path.join(BUILD_DIR, "gadget", "tools", "gadget")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish within 170 s" % workload)
        return 2, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def check_metrics(result, trace, spec):
    """The metric set must be exactly the contract's, with its units."""
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    problems = []
    for m in want:
        if m["name"] not in got:
            problems.append("missing metric " + m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append("unit of %s is %s, not %s" % (m["name"], got[m["name"]]["unit"],
                                                        m["unit"]))
    extra = set(got) - {m["name"] for m in want}
    if extra:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(sorted(extra)))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once")
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()

    spec = contract()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    if not (args.all or args.selftest) and args.workload not in names:
        log("run.py: --workload must be one of " + ", ".join(names))
        return 2

    env = child_env()
    try:
        build(env)
    except (OSError, subprocess.SubprocessError) as e:
        log("run.py: build failed: %s" % e)
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")], env=env,
                              timeout=900).returncode

    if not args.all:
        code, result = run_one(args.workload, args.seed, seconds, args.trace, env)
        if result is None:
            log("run.py: the run printed no result (exit %d)" % code)
            return code or 2
        problems = check_metrics(result, args.trace, spec)
        for p in problems:
            log("run.py: " + p)
        print(json.dumps(result))
        return 2 if problems else code

    summary = {}
    worst = 0
    for name in names:
        start = time.time()
        code, result = run_one(name, args.seed, seconds, 0, env)
        worst = max(worst, code if result is not None else 2)
        summary[name] = result
        log("%s: exit %d in %.1f s" % (name, code, time.time() - start))
    print("%-20s" % "metric" + "".join("%18s" % n for n in names))
    for m in spec["end_to_end"]:
        row = "%-20s" % (m["name"] + " [" + m["unit"] + "]")
        for name in names:
            r = summary[name]
            row += "%18.6g" % r["metrics"][m["name"]]["value"] if r else "%18s" % "-"
        print(row)
    path = os.path.join(WORK_DIR, "results", "all-seed%d.json" % args.seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print("results: " + path)
    return worst


if __name__ == "__main__":
    sys.exit(main())
