#!/usr/bin/env python3
"""End-to-end benchmark of hetsim: build it, run one workload.

    python3 perfbench/run.py --workload tree-son --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the repository root (or any checkout of it). perfbench_e2e is
built from source into .bench_build/perfbench (Release). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it carries the run's metadata
(seed, git SHA, SIMD ISA, HETSIM_THREADS, nproc, build type, DCHECKs).
With --trace 1 the metrics are the per-layer ones and the run's spans
are written to .bench_build/spans/. See README.md beside this file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"
SPEC = ROOT / "BENCHMARK.json"
# Every run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
# Parallel width of the library's thread pool (compositeKModes): fixed,
# so figures compare across hosts, and never above the host's cores.
THREADS = 4


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no hetsim sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_e2e", "-j", str(min(4, nproc()))],
                   check=True, stdout=sys.stderr)


def bench_env():
    env = dict(os.environ)
    env["HETSIM_THREADS"] = str(min(THREADS, nproc()))
    return env


def run_binary(args, quiet=False):
    """Runs perfbench_e2e; returns (meta, result) from its last two lines."""
    try:
        out = subprocess.run([str(BINARY)] + args, env=bench_env(),
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL if quiet else None,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench_e2e timed out after {RUN_TIMEOUT_S} s") from e
    if out.returncode != 0:
        raise BenchError(f"perfbench_e2e exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise BenchError("perfbench_e2e printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def missing_metrics(result, expected):
    """Names in `expected` the result lacks or reports with another unit."""
    got = result.get("metrics", {})
    return [name for name, unit in expected.items()
            if name not in got or got[name].get("unit") != unit
            or not isinstance(got[name].get("value"), (int, float))]


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def bench(opts, spec):
    if opts.workload not in workload_names(spec):
        raise BenchError(f"unknown workload {opts.workload!r}")
    build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        args += ["--spans_out",
                 str(spans / f"{opts.workload}-seed{opts.seed}.json")]
    meta, result = run_binary(args)
    missing = missing_metrics(result, expected_metrics(spec, opts.trace))
    if missing:
        raise BenchError(f"perfbench_e2e did not report {', '.join(missing)}")
    print(json.dumps(meta))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))


def selfcheck(spec):
    """Tiny-scale pass over every workload: every metric BENCHMARK.json
    names is reported with its unit, and a tampered result is caught."""
    build()
    problems = []
    for name in workload_names(spec):
        base = ["--workload", name, "--seed", "1", "--seconds", "0",
                "--scale", "0.2"]
        for trace in (0, 1):
            _, result = run_binary(base + ["--trace", str(trace)])
            missing = missing_metrics(result, expected_metrics(spec, trace))
            if missing:
                problems.append(f"{name} trace {trace}: missing {missing}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name} trace {trace}: failed jobs")
        _, tampered = run_binary(base + ["--trace", "0", "--corrupt"],
                                 quiet=True)
        if tampered["correct"] or tampered["failed"] == 0:
            problems.append(f"{name}: tampered quality was not caught")
        log(f"selfcheck {name}: done")
    for p in problems:
        log(f"SELFCHECK FAILED: {p}")
    if problems:
        raise BenchError("self-check failed")
    log("selfcheck: every workload reports every metric; tampering caught")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    opts = parser.parse_args()
    try:
        spec = json.loads(SPEC.read_text())
        if opts.selfcheck:
            selfcheck(spec)
        elif opts.workload is None:
            parser.error("--workload is required")
        else:
            bench(opts, spec)
    except (BenchError, OSError, ValueError,
            subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
