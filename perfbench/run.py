#!/usr/bin/env python3
"""Builds and runs the SubShare end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from ../src into
$CARGO_TARGET_DIR (default .bench_build) with CMake, using at most three
compiler jobs. Build output goes to stderr; the last line of stdout is the
JSON result printed by the benchmark binary. --selftest runs the binary's
helper checks and a one-second smoke run of every workload in both modes,
checking that every metric BENCHMARK.json names is printed with its unit.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "3"


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "subshare_perfbench", "-j", JOBS],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "subshare_perfbench")


def selftest(binary):
    subprocess.run([binary, "--selftest"], check=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out = subprocess.run(
                [binary, "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if printed != wanted:
                sys.exit("smoke %s trace %s: printed %s, want %s"
                         % (workload["name"], trace, sorted(printed.items()),
                            sorted(wanted.items())))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                sys.exit("smoke %s trace %s: %s" % (workload["name"], trace, out))
            print("ok    smoke %s --trace %s: %d metrics with units"
                  % (workload["name"], trace, len(printed)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("build failed: %s" % e)
    if args.selftest:
        selftest(binary)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s-%s.jsonl"
                                        % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
