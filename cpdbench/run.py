#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 cpdbench/run.py --workload train|train_dist|ingest \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

--seconds sizes the measured work (EM iterations, update batches) at a
pinned amount per second; see workloads.json.

Run from the repository root. The first call builds the system and the
benchmark program from source into .bench_build/ (CMake, Release); later
calls rebuild incrementally. Fixtures are generated from --seed in a
separate process and cached under .bench_build/work/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics
(a layer a workload does not exercise reads 0). A traced run also writes a
Perfetto trace to .bench_build/work/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cpdbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "bin", "cpdbench")
CONFIG = os.path.join(HERE, "workloads.json")
RUN_DEADLINE_S = 170.0


def fail(message):
    print("cpdbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "cpdbench"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            except OSError as error:
                fail("cannot run %s: %s" % (step[0], error))
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)


def run_binary(argv, deadline):
    """Runs cpdbench in its own process group; returns its stdout lines."""
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGTERM)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        fail("%s timed out" % argv[1])
    if process.returncode != 0:
        sys.stdout.write(out)
        fail("%s exited with code %d" % (argv[1], process.returncode))
    return out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    with open(CONFIG) as f:
        names = sorted(json.load(f)["workloads"])
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--config", CONFIG, "--size", args.size, "--work_dir", WORK_DIR]
    deadline = time.time() + RUN_DEADLINE_S
    run_binary([BINARY, "prepare"] + common, deadline)
    lines = run_binary([BINARY, "run"] + common +
                       ["--seconds", repr(args.seconds),
                        "--trace", str(args.trace)], deadline)
    if not lines:
        fail("no output")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("last line is not a JSON result")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            fail("workload %s did not report %s" % (args.workload, name))
        if metrics[name]["unit"] != metric["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s" %
                 (name, metrics[name]["unit"], metric["unit"]))
    extra = sorted(set(measured) - set(metrics))
    if extra:
        print("reported above, not in BENCHMARK.json: " + ", ".join(extra))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
