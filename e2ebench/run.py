#!/usr/bin/env python3
"""End-to-end CFQ benchmark: build, run, report.

    python3 e2ebench/run.py --workload cold_pairs --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all [--seed 1] [--seconds 20]
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call builds the libraries, the
daemon (tools/cfq_served.cc) and the load generator from source into
.bench_build/e2ebench (Release); later calls rebuild incrementally.

One workload: the load generator's output is passed through; its last
line is one JSON object {"correct", "attempted", "failed", "metrics"}
(--trace 0: end-to-end metrics, --trace 1: per-layer metrics). The exit
code is non-zero when the build fails, an answer is wrong, or the run
aborts.

--workload all runs every workload timed and traced, prints every metric
by name with its unit, and exits non-zero if any run failed.

Results and Chrome traces go to .bench_build/e2ebench-out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_build", "e2ebench-out")
WORKLOADS = ["cold_pairs", "cold_mine", "served_mix"]
SELFTEST_TIMEOUT_S = 120


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


def source_fingerprint():
    """sha256 over the sources the benchmark builds (path + content)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "tools", "cfq_served.cc"),
             os.path.join(ROOT, "bench", "bench_util.h")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def build_identity():
    """`git describe` of the checkout, else a content fingerprint."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and os.path.realpath(top.stdout.strip()) == \
                os.path.realpath(ROOT):
            desc = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                capture_output=True, text=True, timeout=30)
            if desc.returncode == 0 and desc.stdout.strip():
                return desc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_fingerprint()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no CFQ source tree next to e2ebench/ (expected src/); "
            "run from a full checkout")
        return None
    os.makedirs(BUILD, exist_ok=True)
    identity = build_identity()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as fh:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
             "-DCFQ_GIT_DESCRIBE=" + identity],
            ["cmake", "--build", BUILD, "-j", jobs, "--target", "cfq_served",
             "e2ebench"],
        ]
        for step in steps:
            if subprocess.run(step, stdout=fh, stderr=subprocess.STDOUT).returncode:
                log("build failed; see " + build_log)
                with open(build_log) as tail:
                    sys.stderr.write("".join(tail.readlines()[-30:]))
                return None
    return identity


def run_timeout(seconds, trace):
    """A hang guard that grows with the run: set-ups, references and checks
    take a fixed allowance; a timed loop (two when traced) runs --seconds
    plus whole cold rounds and probe blocks, and the traced in-process
    pass repeats about one loop's queries."""
    return 240 + seconds * (8 if trace == "1" else 4)


def run_binary(args, timeout):
    """Runs the load generator; returns (exit code, stdout lines)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "e2ebench"),
           "--daemon", os.path.join(BUILD, "cfq_served"), "--out", OUT] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 1, out.splitlines() + ["run timed out"]
    return proc.returncode, proc.stdout.splitlines()


def run_all(seed, seconds):
    failed = False
    combined = {}
    attempted = failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run_binary(["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", trace],
                                     run_timeout(seconds, trace))
            print("\n".join(lines[:-1]))
            result = None
            if lines:
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    result = None
            if code != 0 or result is None or not result.get("correct"):
                failed = True
                print("FAILED: %s trace %s (exit %d)" % (workload, trace, code))
                continue
            attempted += result["attempted"]
            failures += result["failed"]
            for name, metric in sorted(result["metrics"].items()):
                combined["%s.%s" % (workload, name)] = metric
    print("\nall metrics:")
    for name, metric in combined.items():
        print("  %-52s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not failed, "attempted": max(attempted, 1),
                      "failed": failures, "metrics": combined}, sort_keys=True))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload not in WORKLOADS + ["all"]:
        log("unknown workload %r (want %s or all)" % (args.workload,
                                                     ", ".join(WORKLOADS)))
        return 2
    if build() is None:
        return 1
    if args.selftest:
        code, lines = run_binary(["--selftest"], SELFTEST_TIMEOUT_S)
        print("\n".join(lines))
        return code
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, lines = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", args.trace],
                             run_timeout(args.seconds, args.trace))
    print("\n".join(lines), flush=True)
    if code == 0 and not metrics_match_declared(lines, args.trace):
        return 1
    return code


def metrics_match_declared(lines, trace):
    """The reported metric names must be the ones BENCHMARK.json declares."""
    declared_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(declared_path):
        return True
    with open(declared_path) as fh:
        declared = json.load(fh)
    key = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"] for m in declared[key]}
    try:
        got = set(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, IndexError):
        log("the last output line is not a result object")
        return False
    if got != want:
        log("reported metrics differ from BENCHMARK.json %s: missing %s, extra %s"
            % (key, sorted(want - got), sorted(got - want)))
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
