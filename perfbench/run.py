#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library and the benchmark under .bench_build/perfbench; later runs only
re-check the build. The benchmark binary runs with PR_THREADS set to
the number of usable cores and, for --trace 1, PR_OBS=1. Its result
line carries bare metric values; this script attaches each metric's
unit from BENCHMARK.json and keeps the end-to-end metrics (--trace 0)
or the per-layer ones (--trace 1). A per-layer metric of a layer the
workload never calls reads 0. The last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Compilers and the benchmark keep their temporary files here, inside the
# checkout.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BENCH_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    pass


def usable_cores():
    return len(os.sched_getaffinity(0))


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def child_env():
    env = dict(os.environ)
    os.makedirs(TMP_DIR, exist_ok=True)
    env["TMPDIR"] = TMP_DIR
    return env


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "pathrouting", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"library sources missing: {needed} not found under {ROOT}")
    env = child_env()
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "perfbench_selftest", "-j", str(usable_cores())])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def run_binary(args):
    env = child_env()
    env["PR_THREADS"] = str(usable_cores())
    env["PR_OBS"] = "1" if args.trace else "0"
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=BENCH_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise BenchError(f"perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed no result")
    return lines[:-1], json.loads(lines[-1])


def shape_result(spec, raw, trace):
    """Attaches units and keeps the metrics of the run's kind."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    measured = raw["metrics"]
    unknown = sorted(set(measured) - set(end_to_end) - set(per_layer))
    if unknown:
        raise BenchError(f"undeclared metrics: {', '.join(unknown)}")
    wanted = per_layer if trace else end_to_end
    metrics = {}
    for name, decl in wanted.items():
        if name in measured:
            value = measured[name]
        elif trace:
            value = 0  # the workload never calls this layer
        else:
            raise BenchError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": decl["unit"]}
    return {"correct": bool(raw["correct"]) and raw["failed"] == 0,
            "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
            "metrics": metrics}


def check_spec(spec):
    """The self-test of BENCHMARK.json: name grammar, units, directions."""
    problems = []
    names = []
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            name = metric.get("name", "")
            names.append(name)
            want_keys = {"name", "unit", "better"} | ({"bound"} if group == "end_to_end" else set())
            if set(metric) != want_keys:
                problems.append(f"{group} {name}: keys {sorted(metric)}")
            if not NAME_RE.match(name):
                problems.append(f"{group} {name!r}: not a metric name")
            if not UNIT_RE.match(str(metric.get("unit", ""))):
                problems.append(f"{group} {name}: bad unit {metric.get('unit')!r}")
            if metric.get("better") not in ("lower", "higher"):
                problems.append(f"{group} {name}: no direction")
            if group == "end_to_end" and not 0 < metric.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound {metric.get('bound')} outside (0, 0.25]")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"metric names used twice: {duplicates}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    workloads = [w["name"] for w in spec["workloads"]]
    if not 2 <= len(workloads) <= 8 or len(set(workloads)) != len(workloads):
        problems.append(f"workloads: {workloads}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME_RE.match(w["name"]) \
                or "\n" in w["why"] or not 0 < len(w["why"]) <= 200:
            problems.append(f"workload {w.get('name')!r}: needs a name and a one-line why")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append(f"run_seconds {spec['run_seconds']}")
    return problems


def self_test():
    problems = check_spec(load_spec())
    for p in problems:
        print(f"run.py self-test: {p}", file=sys.stderr)
    build()
    done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                          stdout=sys.stderr, stderr=sys.stderr, check=False)
    ok = not problems and done.returncode == 0
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        build()
        notes, raw = run_binary(args)
        result = shape_result(spec, raw, args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
