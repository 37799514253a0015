#!/usr/bin/env python3
"""Builds and runs the pscd end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt (the pscd library from src/ plus the
measuring program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed. Build output goes to stderr.

Standard output carries a provenance line, one line per metric, and, as
its last line, the result JSON with the keys correct, attempted, failed
and metrics. Its metric names are checked against BENCHMARK.json: the
end_to_end list on --trace 0, the per_layer list on --trace 1. The exit
code is 0 only when the build succeeded and every correctness check
passed. With --workload all, each workload's lines follow a "workload:"
line, and the last line maps every workload to its result.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(CHECKOUT / ".bench_build")
    return pathlib.Path(base).resolve() / "perfbench"


def build(bdir):
    """Configures once, then builds; returns the program path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    program = bdir / "pscd_perfbench"
    return program if program.exists() else None


def cache_value(bdir, key):
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def provenance(bdir):
    """Where and from what a result came; results of different hosts are
    never compared."""
    cpu = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = ""
    dirty = None
    if (CHECKOUT / ".git").exists():
        sha = first_line(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"])
        status = subprocess.run(
            ["git", "-C", str(CHECKOUT), "status", "--porcelain"],
            capture_output=True, text=True)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    compiler = cache_value(bdir, "CMAKE_CXX_COMPILER")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": dirty,
        "compiler": first_line([compiler, "--version"]) if compiler else "",
        "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
    }


def expected_metrics(trace):
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(program, workload, args):
    """Runs one workload and prints all but its result line; returns the
    exit code and the result line (None when there is no valid result)."""
    proc = subprocess.run(
        [str(program), "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        print("perfbench: the program printed nothing", file=sys.stderr)
        return proc.returncode or 4, None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if proc.returncode == 0:
        names = sorted(result["metrics"])
        expected = sorted(expected_metrics(args.trace))
        if names != expected:
            print("perfbench: metrics %s do not match BENCHMARK.json %s"
                  % (names, expected), file=sys.stderr)
            return 4, None
    return proc.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, "
                        "or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    program = build(bdir)
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args.selftest:
        return subprocess.run([str(program), "--selftest"]).returncode
    if not args.workload:
        parser.error("--workload is required")

    print("provenance: " + json.dumps(provenance(bdir)), flush=True)
    if args.workload != "all":
        code, last = run_workload(program, args.workload, args)
        if last is not None:
            print(last, flush=True)
        return code
    # Every workload in turn; the last line maps each to its result.
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    code, results = 0, {}
    for workload in [w["name"] for w in spec["workloads"]]:
        print("workload: " + workload, flush=True)
        rc, last = run_workload(program, workload, args)
        code = code or rc
        if last is not None:
            print(last, flush=True)
            results[workload] = json.loads(last)
    print(json.dumps(results), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
