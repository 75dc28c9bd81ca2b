#!/usr/bin/env python3
"""Performance benchmark of the columbia simulator.

    python3 colbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 colbench/run.py --workload all ...   # every workload, one process each
    python3 colbench/run.py --self-test          # the benchmark's own tests

Builds the simulator's libraries and the colbench binary from this
checkout's sources into .bench_build/colbench (CMake, Release), runs one
workload in its own process, and prints its metrics. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). A record
with sample counts and provenance goes to .bench_build/colbench-results/.
METRICS.md says what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "colbench")
RESULTS = os.path.join(ROOT, ".bench_build", "colbench-results")
WORKLOADS = ["overflow-rotor", "columbia-full", "serve-mix"]
# setup_s is the median of this many set-ups: the run's own plus separate
# --setup-only processes, since set-up happens once per process.
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("colbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build(targets):
    """Configures once and builds `targets`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources: " + os.path.join(ROOT, "src") + " is missing")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", BUILD, "-j", str(nproc()), "--target"]
                   + targets)


def run_build_step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("build step failed: " + " ".join(cmd), 1)


def source_digest():
    """sha256 over the sources and goldens the benchmark builds and reads.

    The checkout the benchmark runs in need not be a git repository, so
    this stands in for a commit id there."""
    h = hashlib.sha256()
    for top in ("src", "bench_results", "colbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def colbench(args):
    """Runs the colbench binary; returns (stdout lines, parsed last line)."""
    cmd = [os.path.join(BUILD, "colbench"), "--root", ROOT] + args
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd), 1)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        die("exit code %d: %s" % (done.returncode, " ".join(cmd)), 1)
    lines = done.stdout.splitlines()
    if not lines:
        die("no output: " + " ".join(cmd), 1)
    return lines, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-s%d-t%d" % (name, seed, trace)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--trace-out", os.path.join(RESULTS, tag + ".trace.json")]
    lines, record = colbench(args)
    if not trace:
        setups = [record["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            _, extra = colbench(args + ["--setup-only"])
            setups.append(extra["metrics"]["setup_s"]["value"])
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
        record["samples"]["setup_s"] = len(setups)
        record["notes"]["setup_s"] = "median of %d set-ups" % len(setups)
    record["provenance"]["commit"] = git_commit()
    record["provenance"]["source_sha256"] = source_digest()
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for line in lines[:-1]:
        print(line)
    for key, value in sorted(record["provenance"].items()):
        print("provenance %s = %s" % (key, value))
    print("fail_ratio %d/%d" % (record["failed"], record["attempted"]))
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    if opts.self_test:
        build(["colbench_test"])
        os.makedirs(RESULTS, exist_ok=True)
        sys.exit(subprocess.run([os.path.join(BUILD, "colbench_test")],
                                cwd=RESULTS).returncode)
    if opts.workload is None:
        die("--workload is required")

    build(["colbench"])
    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    records = []
    for name in names:
        print("== %s (seed %d, %d s, trace %d)" % (name, opts.seed,
                                                   opts.seconds, opts.trace))
        records.append(run_workload(name, opts.seed, opts.seconds, opts.trace))
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else
        {"%s.%s" % (n, k): v for n, r in zip(names, records)
         for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
