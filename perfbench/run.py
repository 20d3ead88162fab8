#!/usr/bin/env python3
"""Build and run the layered CAMP benchmark.

Benchmark mode (one workload, one run; the last stdout line is the JSON
result):

    python3 perfbench/run.py --workload paper-mix --seed 7 --seconds 10 --trace 0

Self-test mode (fault injection must be caught, trace-replay must reproduce
the fig5cd baseline rows, and every workload must print every metric once):

    python3 perfbench/run.py --self-test

The benchmark compiles the repository's sources from ../src into the build
directory named by CARGO_TARGET_DIR (default .bench_build), relative to the
repository root, and runs everything from that root.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["trace-replay", "paper-mix", "hot-multiget", "cluster-r2"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the Release binary; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        r = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("run.py: cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(out), "-j3"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SystemExit("run.py: build failed")
    return out / "camp_perfbench"


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_binary(binary, args, capture):
    cmd = [str(binary), *args, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")


# ---- self-test ---------------------------------------------------------------


def parse_run(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    metrics = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)", line)
        if m:
            metrics.setdefault(m.group(1), []).append(m.group(3))
    return result, metrics


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    names = None
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            r = run_binary(binary, ["--workload", workload, "--seed", "5",
                                    "--seconds", "1", "--trace", trace,
                                    "--scale", "tiny"], capture=True)
            result, metrics = parse_run(r.stdout)
            tag = f"{workload} trace={trace}"
            expect(r.returncode == 0 and result and result["correct"],
                   f"{tag}: clean run passes its checks")
            expect(all(len(u) == 1 for u in metrics.values()),
                   f"{tag}: every metric name printed exactly once")
            if names is None:
                names = set(metrics)
            expect(set(metrics) == names,
                   f"{tag}: the same metric names as every other run")
            want = layer if trace == "1" else e2e
            got = (result or {}).get("metrics", {})
            expect(set(got) == set(want) and
                   all(got[n]["unit"] == want[n] for n in want),
                   f"{tag}: JSON metrics match BENCHMARK.json with units")
            expect(all(metrics.get(n) == [u] for n, u in want.items()),
                   f"{tag}: report units match BENCHMARK.json")

    for fault in ("flip-hit", "drop-set"):
        r = run_binary(binary, ["--workload", "paper-mix", "--seed", "5",
                                "--seconds", "1", "--trace", "0",
                                "--scale", "tiny", "--fault", fault],
                       capture=True)
        result, _ = parse_run(r.stdout)
        expect(r.returncode != 0 and result and not result["correct"],
               f"injected fault {fault} is rejected")

    r = run_binary(binary, ["--workload", "trace-replay", "--seed", "2014",
                            "--seconds", "1", "--trace", "1"], capture=True)
    for series in ("camp-p5", "lru"):
        expect(r.returncode == 0 and
               f"check fig5cd {series} at ratio 0.1 reproduced" in r.stdout,
               f"trace-replay reproduces fig5cd {series} at seed 2014")

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--fault", choices=["none", "flip-hit", "drop-set"],
                        default="none")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    r = run_binary(binary, ["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", args.trace, "--scale", args.scale,
                            "--fault", args.fault],
                   capture=False)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
