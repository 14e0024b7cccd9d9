#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the served TCP stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries plus the benchmark) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, and runs the
benchmark's self-test once per build. Every run prints the benchmark's
report; its last line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 1 also writes the traced run's
spans to .bench_build/perfbench/spans/<workload>-seed<N>.jsonl.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def configured_for(build_dir):
    """The source directory an existing build tree was configured for."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return ""


def build(source, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = configured_for(build_dir)
    if configured is not None and configured != str(source):
        shutil.rmtree(build_dir)
        build_dir.mkdir(parents=True)
        configured = None
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if configured is None:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", *generator, "-S", str(source), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr, env=env)


def selftest(build_dir):
    """Runs the self-test once per build of its binary."""
    binary = build_dir / "perfbench_selftest"
    stamp = build_dir / "selftest.passed"
    if stamp.exists() and stamp.stat().st_mtime >= binary.stat().st_mtime:
        return
    work = build_dir / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([str(binary), str(work)], check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp.touch()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    source = Path(__file__).resolve().parent
    if not (source.parent / "src" / "CMakeLists.txt").exists():
        log("the repository's src/ is missing; run from a full checkout")
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    try:
        build(source, build_dir)
        selftest(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        log(f"build or self-test failed: {error}")
        return 1

    work = build_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.returncode != 0:
        log(f"benchmark exited with {result.returncode}")
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
