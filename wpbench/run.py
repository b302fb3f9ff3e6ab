#!/usr/bin/env python3
"""The wayplace benchmark: one command per workload.

    python3 wpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
harness, the libraries and wp_serve into .bench_build/ (later runs only
check that the build is current). The harness measures the workload;
this script derives the metrics, runs the golden guest check, records
the host fingerprint, and prints one JSON result as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric. The exit code is non-zero on any correctness
failure, and whenever the benchmark cannot run at all.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Per-cell report fields that describe the host, not the simulated
# machine; every other field of a golden cell must match byte for byte.
HOST_FIELDS = {"attempts", "restored", "from_store", "wall_seconds",
               "simulate_seconds", "price_seconds", "guest_mips", "worker"}
GOLDEN = "BENCH_fig6.json"
HARNESS_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(samples, p):
    """Nearest-rank p-th percentile of samples.

    Refuses (ValueError) when fewer than ten samples lie beyond it: a
    tail figure resting on a handful of samples is noise, not a tail.
    """
    n = len(samples)
    if n == 0 or n * (100.0 - p) / 100.0 < 10:
        raise ValueError(
            f"p{p:g} needs at least 10 samples beyond it; have {n} samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "wpbench")


def build():
    """Configures (once) and builds the harness; returns the build dir."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    log("".join(f.readlines()[-30:]))
                if len(steps) == 2 and cmd is steps[0]:
                    # A failed configure must not leave a cache that makes
                    # the next run skip it.
                    shutil.rmtree(out, ignore_errors=True)
                raise SystemExit(f"error: benchmark build failed ({' '.join(cmd)})")
    return out


def fingerprint(build_out, jobs, seed):
    """Host, build and revision facts, read from outside the program."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_out, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$", line)
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = "unknown"
    if cache.get("CMAKE_CXX_COMPILER"):
        r = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout:
            compiler = r.stdout.splitlines()[0]
    revision = "unknown (not a git checkout)"
    if shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            revision = r.stdout.strip()
    return {"cores": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "wp_jobs": jobs, "seed": seed, "git_revision": revision,
            "kernel": platform.release()}


def report_cells(paths, text_numbers=False):
    """Every cell of the given sweep reports, numbers as source text if asked."""
    cells = []
    for path in paths:
        with open(path) as f:
            if text_numbers:
                doc = json.load(f, parse_float=str, parse_int=str)
            else:
                doc = json.load(f)
        cells += doc["cells"]
    return cells


def golden_check(report_paths):
    """Diffs every fig6 cell's guest fields against BENCH_fig6.json.

    Numbers are kept as their source text, so the comparison is byte for
    byte. Returns (cells compared, list of mismatch descriptions).
    """
    def keyed(cells):
        out = {}
        for c in cells:
            key = "/".join(str(c.get(k)) for k in (
                "workload", "icache_size_bytes", "ways", "line_bytes", "scheme",
                "wp_area_bytes", "layout"))
            out[key] = {k: v for k, v in c.items() if k not in HOST_FIELDS}
        return out

    golden = keyed(report_cells([os.path.join(ROOT, GOLDEN)], True))
    fresh = keyed(report_cells(report_paths, True))
    bad = []
    for key in sorted(set(golden) | set(fresh)):
        if key not in fresh:
            bad.append(f"golden cell {key} was not produced")
        elif key not in golden:
            bad.append(f"cell {key} is not in {GOLDEN}")
        elif golden[key] != fresh[key]:
            diff = [k for k in golden[key] if golden[key][k] != fresh[key].get(k)]
            bad.append(f"cell {key} differs from {GOLDEN} in {', '.join(diff)}")
    return len(golden), bad


def paper_gap_pp(cells):
    """Mean absolute gap, in percentage points, between the grid's suite
    averages and the paper's headline numbers that the grid covers: WP
    I-cache energy ~50 % and way-memo ~68 % (32 KB/32-way, 16 KB area),
    1 KB area ~56 %, average ED ~0.93 and best ED ~0.80 (x100). A guest
    figure: only a fidelity change may move it."""
    groups = {}
    for c in cells:
        key = (c["icache_size_bytes"], c["ways"], c["scheme"], c["wp_area_bytes"])
        groups.setdefault(key, []).append(c)

    def avg(key, field):
        return statistics.fmean(c[field] for c in groups[key])

    wp16 = (32768, 32, "way-placement", 16384)
    best_ed = min(avg(k, "ed_product") for k in groups if k[2] == "way-placement")
    gaps = [100 * avg(wp16, "icache_energy") - 50,
            100 * avg((32768, 32, "way-memoization", 0), "icache_energy") - 68,
            100 * avg((32768, 32, "way-placement", 1024), "icache_energy") - 56,
            100 * avg(wp16, "ed_product") - 93,
            100 * best_ed - 80]
    return statistics.fmean(abs(g) for g in gaps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-failure", action="store_true",
                    help="break one unit of work on purpose (self-tests)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    out_dir = build()

    jobs = max(1, min(4, os.cpu_count() or 1))
    work = os.path.join(os.path.relpath(os.path.dirname(out_dir), ROOT),
                        "work", args.workload)
    raw_path = os.path.join(work, "raw.json")
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    if os.path.exists(os.path.join(ROOT, raw_path)):
        os.remove(os.path.join(ROOT, raw_path))
    cmd = [os.path.join(out_dir, "wpbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--jobs", str(jobs), "--work-dir", work,
           "--serve-bin", os.path.join(out_dir, "wp_serve"), "--out", raw_path]
    if args.inject_failure:
        cmd.append("--inject-failure")
    env = {k: v for k, v in os.environ.items() if not k.startswith("WP_")}
    started = time.monotonic()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            timeout=HARNESS_BUDGET_S).returncode
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: harness exceeded {HARNESS_BUDGET_S:.0f} s")
    if rc != 0 or not os.path.exists(os.path.join(ROOT, raw_path)):
        raise SystemExit(f"error: harness failed with exit code {rc}")
    with open(os.path.join(ROOT, raw_path)) as f:
        raw = json.load(f)

    failures = list(raw["failures"])
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    latency = raw["latency_ms"]
    extra = raw["extra"]
    if "fig6_reports" in extra:
        report_dir = os.path.join(ROOT, extra["fig6_reports"])
        reports = sorted(os.path.join(report_dir, n) for n in os.listdir(report_dir))
        cells = report_cells(reports)
        latency = [1e3 * c["wall_seconds"] for c in cells]
        extra["paper_gap_pp"] = paper_gap_pp(cells)
        log(f"[wpbench] paper_gap_pp {extra['paper_gap_pp']!r} "
            "(simulated vs paper headline numbers)")
        if args.seed == 0:
            compared, bad = golden_check(reports)
            attempted += compared
            failed += len(bad)
            failures += bad[:20]
            log(f"[wpbench] golden check: {compared - len(bad)}/{compared} "
                f"cells byte-identical to {GOLDEN}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(raw["layers"]) - set(names))
        if unknown:
            raise SystemExit(f"error: harness reported undeclared metrics {unknown}")
        # A layer this workload does not exercise did no work: 0.
        values = {n: raw["layers"].get(n, 0.0) for n in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        passes = raw["passes"]
        tail = raw["latency_tail_pct"]
        try:
            latency_tail = percentile(latency, tail)
        except ValueError as e:
            raise SystemExit(f"error: latency: {e} (run longer: --seconds)")
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "cells_per_s": statistics.median(p["cells"] / p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
            "latency_mean_ms": statistics.fmean(latency),
            "latency_tail_ms": latency_tail,
        }
        log(f"[wpbench] {len(latency)} latency samples; latency_tail_ms is p{tail:g}")
    for n in names:
        if not METRIC_NAME.match(n):
            raise SystemExit(f"error: metric name {n!r} is not [A-Za-z0-9_.-]+")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}

    result = {"correct": failed == 0, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}
    record = {"result": result, "host": fingerprint(out_dir, jobs, args.seed),
              "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "wall_s": time.monotonic() - started,
              "failures": failures, "self_seconds": raw["self_seconds"],
              "extra": extra}
    results_dir = os.path.join(os.path.dirname(out_dir), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    log(f"[wpbench] host: {json.dumps(record['host'])}")
    for msg in failures:
        log(f"[wpbench] FAILED: {msg}")
    for n in names:
        log(f"[wpbench] {n:40s} {values[n]:14.6g} {units[n]}")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
