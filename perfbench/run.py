#!/usr/bin/env python3
"""Verifier benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds bsr_perfbench (perfbench/CMakeLists.txt,
which compiles the library from ../src and the `bsr` CLI from ../tools) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and prints its
verdict as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("lint-registry", "explore-bounded", "explore-fullinfo", "serve-mix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources_digest():
    """A digest of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def source_digest():
    """The commit of a clean git checkout; the commit plus the sources'
    digest when the tree has uncommitted changes; the digest alone for a
    source export without .git."""
    def git(*args):
        out = subprocess.run(["git", "-C", ROOT, *args],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        head, status = None, None
    if not head:
        return sources_digest()
    if status is None or status:
        return f"{head}+dirty:{sources_digest()}"
    return head


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bsr_perfbench", "bsr_cli"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 1)


def check_metric_names(metrics, trace):
    """bsr_perfbench and BENCHMARK.json must name the same metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))} "
             f"{[n for n in want if n in got and want[n] != got[n]]}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    # Relative paths keep the daemon's AF_UNIX socket path short.
    work_dir = os.path.relpath(os.path.join(build_dir, "runs"))
    os.makedirs(work_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "bsr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bsr", os.path.join(build_dir, "bsr_tools", "bsr"),
           "--work-dir", work_dir, "--commit", source_digest()]
    # bsr_perfbench and the daemons it starts share a process group, so a
    # timeout or a SIGTERM here stops all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def terminate(signum, frame):
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, terminate)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"bsr_perfbench exited {proc.returncode}", 1)
    lines = out.rstrip("\n").split("\n")
    verdict = json.loads(lines[-1])
    if set(verdict) != {"correct", "attempted", "failed", "metrics"}:
        fail("bsr_perfbench printed a malformed verdict", 1)
    check_metric_names(verdict["metrics"], args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
