#!/usr/bin/env python3
"""Build and run the staleflow service benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve-steady|bursty-split|tenants-durable>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which builds the library from ../src through the
repository's own CMakeLists.txt) in Release mode into $CARGO_TARGET_DIR,
default .bench_build, then runs one workload. The last line of standard
output is the benchmark's JSON result; build output goes to standard
error. Exit status is the benchmark's: 0 when every check passed, 1 when a
check failed, 2 on bad arguments or a missing source tree.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve-steady", "bursty-split", "tenants-durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_id():
    """git HEAD when the tree is a checkout, else a digest of the sources."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return "git-" + ref_file.read_text().strip()[:12]
        else:
            return "git-" + ref[:12]
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--parallel", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no staleflow sources next to {BENCH_DIR}",
              file=sys.stderr)
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp, "--source", source_id()]
    start = time.monotonic()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(result.stdout)
    print(f"perfbench: run took {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
