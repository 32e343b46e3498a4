#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-faults --seed 1 --seconds 25 --trace 0

The program is built into $CARGO_TARGET_DIR (default .bench_build) with
every Go cache and temporary directory kept under it, then run in a
process of its own so the workload's peak RSS is its own. Its report is
relayed to stdout; the last line is the JSON result. On any failure
(build error, crash, timeout, missing result) this script exits 1
without printing a result.
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
# A run must end within 180 s; leave room for the build's link step and
# for stopping the child.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORKLOADS = ("serve-faults", "serve-tenants", "rag-hnsw")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_env(build_dir):
    env = dict(os.environ)
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build_dir, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        TMPDIR=os.path.join(build_dir, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    # Measure with the Go runtime's default GC settings, on at most two
    # processors so hosts with more cores run the same configuration.
    for k in ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS"):
        env.pop(k, None)
    env["GOMAXPROCS"] = str(min(2, os.cpu_count() or 1))
    return env


def run_group(cmd, cwd, env, timeout):
    """Run cmd in a process group of its own; on timeout kill the whole
    group and wait for it. Returns (returncode, stdout, stderr), with
    returncode None on timeout."""
    try:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
    except FileNotFoundError:
        fail("%s not found" % cmd[0])
    try:
        out, err = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, b"", b""
    return proc.returncode, out, err


def build(env, binary, deadline):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at the repository root; cannot build the program under test")
    code, out, err = run_group(["go", "build", "-trimpath", "-o", binary, "."],
                               HERE, env, deadline - time.monotonic())
    if code is None:
        fail("build timed out")
    if code != 0:
        sys.stderr.write((out + err).decode(errors="replace"))
        fail("build failed")


def check_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return False
    return isinstance(res["metrics"], dict) and res["attempted"] >= 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    env = build_env(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    build(env, binary, start + BUILD_TIMEOUT_S)

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-out", os.path.join(build_dir, "out"),
    ]
    code, out, err = run_group(cmd, ROOT, env, RUN_TIMEOUT_S)
    if code is None:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode(errors="replace").rstrip("\n").split("\n")
    if code != 0:
        fail("%s exited with code %d" % (args.workload, code))
    if not lines or not check_result(lines[-1]):
        fail("%s printed no result line" % args.workload)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
