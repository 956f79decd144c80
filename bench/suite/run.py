#!/usr/bin/env python3
"""Builds middlefl_bench from the source tree and runs benchmark workloads.

One workload:

    python3 bench/suite/run.py --workload fleet_1m --seed 3 --seconds 15 --trace 0

prints the workload's `workload name value unit` lines, then one JSON line
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
Without --workload every workload runs, each in its own child process, and
--out collects their full records (protocol header, checks, per-metric
sample count, median and quartiles) into one JSON file.

The first run configures and builds into .bench_build/suite at the root of
the checkout; later runs only re-check the build. Exit status: 0 when every
check passed, 3 when a correctness check failed, 1 on any other error (no
result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    """Configures (once) and builds middlefl_bench; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"middlefl sources not found under {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SUITE_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "middlefl_bench"


def run_child(binary, workload, args, out_path, trace_path):
    """Runs one workload; returns (exit code, metric lines, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if out_path:
        cmd += ["--out", str(out_path)]
    if trace_path:
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 3) or not lines:
        fail(f"{workload}: exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last output line is not JSON")
    return done.returncode, lines[:-1], result


def select_metrics(spec, result, trace, workload):
    """Keeps the metrics BENCHMARK.json declares for this mode."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = bool(result.get("correct"))
    for entry in declared:
        name = entry["name"]
        found = result["metrics"].get(name)
        if found is None:
            print(f"run.py: {workload} did not report {name}", file=sys.stderr)
            correct = False
            continue
        if not trace and not found["value"] > 0:
            print(f"run.py: {workload} reported {name} = {found['value']}",
                  file=sys.stderr)
            correct = False
        metrics[name] = {"value": found["value"], "unit": entry["unit"]}
    return correct, metrics


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a short budget (CI)")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--binary", help="use this middlefl_bench, no build")
    parser.add_argument("--json-check",
                        help="validate --out with this json_check binary")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)

    if args.binary:
        binary = Path(args.binary).resolve()
        build_dir = binary.parent
    else:
        build_dir = ROOT / ".bench_build" / "suite"
        binary = build(build_dir)
    trace_dir = build_dir / "traces"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)

    workloads = [args.workload] if args.workload else names
    records = {}
    all_correct = True
    attempted = failed = 0
    final_metrics = {}
    status = 0
    with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
        for workload in workloads:
            out_path = Path(tmp) / f"{workload}.json" if args.out else None
            trace_path = (trace_dir / f"{workload}-seed{args.seed}.json"
                          if args.trace else None)
            code, lines, result = run_child(binary, workload, args, out_path,
                                            trace_path)
            for line in lines:
                print(line)
            correct, metrics = select_metrics(spec, result, args.trace,
                                              workload)
            all_correct = all_correct and correct
            attempted += int(result["attempted"])
            failed += int(result["failed"])
            status = max(status, code)
            prefix = "" if args.workload else f"{workload}."
            for name, value in metrics.items():
                final_metrics[prefix + name] = value
            if out_path:
                records[workload] = json.loads(out_path.read_text())

    if args.out:
        Path(args.out).write_text(
            json.dumps({"workloads": records}, indent=2) + "\n")
        if args.json_check:
            check = subprocess.run([args.json_check, "--require-key",
                                    "workloads", "--file", args.out])
            if check.returncode != 0:
                all_correct = False
    if not all_correct:
        status = max(status, 3)
    print(json.dumps({"correct": all_correct, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    sys.exit(status)


if __name__ == "__main__":
    main()
