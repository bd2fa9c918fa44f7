#!/usr/bin/env python3
"""Build and run the repository benchmark (see padbench/README.md).

    python3 padbench/run.py --workload attack_grid --seed 7 --seconds 20 --trace 0
    python3 padbench/run.py --smoke

A measurement run first builds padbench/ (Release, O3 + LTO) into
$CARGO_TARGET_DIR/padbench, default .bench_build/padbench, then runs
the driver once. The driver's own lines pass through; the last line of
standard output is the JSON result. The exit code is non-zero when the
build fails, an output check fails, or the result does not carry
exactly the metrics BENCHMARK.json names for the mode, with their
units.

--smoke runs every workload for one second in both modes, checks the
metric names and units, and checks that the traced run's Chrome-trace
file parses.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"padbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "padbench")


def build():
    """Configure once, then (re)build; returns the driver binary."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(out, "padbench")


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def trace_path(workload, seed):
    return os.path.join(build_dir(), f"trace_{workload}_{seed}.json")


def check_trace_file(path):
    """A problem with the Chrome-trace file, or None."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return f"trace file {path} does not parse: {e}"
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return f"trace file {path} has no traceEvents"
    if not any(e.get("name") == "job" and e.get("ph") == "X"
               for e in events):
        return f"trace file {path} has no job spans"
    return None


def run_once(binary, spec, workload, seed, seconds, trace):
    """Run the driver; returns (result dict or None, stdout lines, errors)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", trace_path(workload, seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [], [f"{workload}: driver exceeded {RUN_TIMEOUT_S} s"]
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    errors = []
    result = None
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        pass
    if not isinstance(result, dict):
        return None, lines, [f"{workload}: no JSON result "
                             f"(exit code {proc.returncode})"]
    if proc.returncode != 0 or result.get("correct") is not True:
        errors.append(f"{workload}: output checks failed "
                      f"({result.get('failed')} of "
                      f"{result.get('attempted')})")
    want = expected_metrics(spec, trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        errors.append(f"{workload}: metric mismatch: missing {missing}, "
                      f"unexpected {extra}, wrong unit {units}")
    if trace:
        problem = check_trace_file(trace_path(workload, seed))
        if problem:
            errors.append(f"{workload}: {problem}")
    return result, lines, errors


def measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    binary = build()
    result, lines, errors = run_once(binary, spec, args.workload, args.seed,
                                     args.seconds, args.trace)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    for e in errors:
        print(f"padbench: {e}", file=sys.stderr)
    if result is None:
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(1 if errors else 0)


def smoke():
    spec = load_spec()
    binary = build()
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, _, errs = run_once(binary, spec, w["name"], 1, 1, trace)
            errors += errs
            status = "ok" if not errs else "FAILED"
            print(f"smoke {w['name']} trace {trace}: {status}")
    for e in errors:
        print(f"padbench: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="run every workload briefly and check the output")
    args = p.parse_args()
    if args.smoke:
        smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    measure(args)


if __name__ == "__main__":
    main()
