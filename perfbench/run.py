#!/usr/bin/env python3
"""Build and run the LWC repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark package in this
directory (release profile, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), prints a machine stamp, runs one workload, and re-prints its
output. The last line is the result object; with `--trace 0` it gains
`peak_rss_mb`, the benchmark process's peak resident memory. Exits nonzero
if the build fails, an output check fails, or the run exceeds its time limit.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run must end within 180 s; leave room for the build check and exit.
RUN_LIMIT_S = 170


def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def read_text(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def cpu_model():
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = (read_text(os.path.join(index, "level")) or "").strip()
        kind = (read_text(os.path.join(index, "type")) or "").strip()
        size = (read_text(os.path.join(index, "size")) or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes["L" + level] = size
    return sizes


def source_revision():
    """The git revision, or for a checkout without git metadata a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
        if rev:
            return rev
    digest = hashlib.sha256()
    files = glob.glob(os.path.join(ROOT, "crates", "**", "*"), recursive=True)
    files += glob.glob(os.path.join(HERE, "src", "*.rs")) + [os.path.join(ROOT, "Cargo.lock")]
    for path in sorted(f for f in files if os.path.isfile(f)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "revision": source_revision(),
    }
    print("# stamp " + json.dumps(stamp), flush=True)

    binary = os.path.join(target, "release", "lwc-perfbench")
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(RUN_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps this one child and reports its own peak RSS (the
        # build's processes are not counted).
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        print(out, end="")
        print(f"run.py: benchmark exited with code {code}", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        print(f"peak_rss_mb = {usage.ru_maxrss / 1024.0} MB")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
