#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md in this directory
has the workload and metric glossary).

  python3 hydrabench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 hydrabench/run.py --self-test

Run from the repository root.  Each call builds the hydrabench binary
from source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one
workload in its own process with HYDRA_THREADS pinned, appends the
stamped record to <build>/hydrabench/records.jsonl and prints the
report followed by one JSON result line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes its spans as
Chrome trace JSON under <build>/hydrabench/traces/.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ckks_bootstrap", "sim_matrix", "serve_cake"]
# Hard cap on one workload process; a run must end well inside 180 s.
RUN_TIMEOUT_S = 170
# Self-test runs: tiny sizes, a fraction of a second of measurement.
SMOKE_SECONDS = "0.5"


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "hydrabench")


def threads():
    """HYDRA_THREADS from the environment when valid, else nproc capped
    at 4 so hosts with more cores measure the same configuration."""
    env = os.environ.get("HYDRA_THREADS", "")
    if env.isdigit() and int(env) > 0:
        return int(env)
    return min(nproc(), 4)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def build():
    """Configure (once) and build the binary; None when the hydra
    sources are missing or the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no hydra sources at %s/src" % ROOT)
        return None
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", str(nproc()),
                  "--target", "hydrabench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "hydrabench")


def contract():
    """(end_to_end, per_layer) metric lists from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload process; returns its JSON document or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit()] + list(extra)
    if trace:
        tdir = os.path.join(build_dir(), "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(tdir, "%s-seed%s.json" % (workload, seed))]
    env = dict(os.environ, HYDRA_THREADS=str(threads()))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    if proc.returncode != 0:
        log("%s exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(proc.stdout)


def missing_metrics(doc, wanted):
    """Names of `wanted` metrics absent from `doc`, wrong in unit, or
    not finite."""
    bad = []
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not math.isfinite(got["value"])):
            bad.append(m["name"])
    return bad


def error_rate(doc):
    return doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0


def main(args):
    binary = build()
    if binary is None:
        return 2
    end_to_end, per_layer = contract()
    wanted = per_layer if args.trace else end_to_end
    doc = run_workload(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    if doc is None:
        return 1
    bad = missing_metrics(doc, wanted)
    if bad:
        log("metrics missing from the run: " + ", ".join(bad))
        return 1

    with open(os.path.join(build_dir(), "records.jsonl"), "a") as f:
        f.write(json.dumps(doc, sort_keys=True) + "\n")
    for key, value in doc["stamp"].items():
        print("stamp %s = %s" % (key, value))
    for note in doc["notes"]:
        print("note  " + note)
    print("metric error_rate = %.6g ratio (%d of %d items failed)"
          % (error_rate(doc), doc["failed"], doc["attempted"]))
    for name, m in doc["metrics"].items():
        print("metric %s = %.10g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: doc["metrics"][m["name"]] for m in wanted},
    }))
    return 0


def self_test():
    """Tiny-size smoke run of every workload in both modes: every
    metric BENCHMARK.json names is emitted with its unit, outputs pass
    their checks, and a deliberately corrupted output is caught."""
    binary = build()
    if binary is None:
        return 2
    end_to_end, per_layer = contract()
    failures = []
    for w in WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            doc = run_workload(binary, w, 1, SMOKE_SECONDS, trace, ["--tiny"])
            if doc is None:
                failures.append("%s trace=%d: run failed" % (w, trace))
                continue
            bad = missing_metrics(doc, wanted)
            if bad:
                failures.append("%s trace=%d: missing %s"
                                % (w, trace, ", ".join(bad)))
            if not doc["correct"] or doc["failed"]:
                failures.append("%s trace=%d: checks failed" % (w, trace))
            if trace == 0 and any(doc["metrics"][m["name"]]["value"] <= 0
                                  for m in end_to_end):
                failures.append("%s: an end-to-end metric is not > 0" % w)
        doc = run_workload(binary, w, 1, SMOKE_SECONDS, 0,
                           ["--tiny", "--corrupt"])
        if doc is None or doc["correct"] or not error_rate(doc) > 0:
            failures.append("%s: corrupted output not caught" % w)
    for f in failures:
        log("self-test FAILED: " + f)
    print("self-test %s (%d workloads, %d failures)"
          % ("ok" if not failures else "FAILED", len(WORKLOADS),
             len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        sys.exit(self_test())
    if a.workload is None:
        ap.error("--workload is required")
    sys.exit(main(a))
