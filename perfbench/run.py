#!/usr/bin/env python3
"""Cost-damage service benchmark: build, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload solve_cold --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the library straight from src/ plus the atcd_perfbench
program) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the workload, prints every metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, with --trace 1
its per_layer ones.  Exits 1 when any output failed its check and 2 or 3
when the benchmark could not build or run (then without a result line).

    python3 perfbench/run.py --compare old.json new.json

compares two reports saved with --report-out and flags (exit 1) a
comparison of absolute numbers taken on different hosts.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_cold", "serve_warm", "edit_session")
# Host facts that must agree before absolute numbers may be compared.
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "dispatcher.hpp")):
        log("perfbench: no library sources under %s/src" % ROOT)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: %s failed: %s" % (cmd[0], e))
            return None
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    binary = os.path.join(out, "atcd_perfbench")
    return binary if os.path.isfile(binary) else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, in order."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_metrics(title, metrics):
    print("%s:" % title)
    for name, m in metrics.items():
        value = m["value"]
        n = " (n=%d)" % m["n"] if "n" in m else ""
        shown = "withheld: <10 samples beyond it" if value is None else "%.6g" % value
        print("  %-34s %-34s %s%s" % (name, shown, m["unit"], n))


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    mismatch = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if mismatch:
        print("HOST MISMATCH (%s): absolute numbers from these reports are not "
              "comparable" % ", ".join(mismatch))
        for k in mismatch:
            print("  %s: %r vs %r" % (k, a["host"].get(k), b["host"].get(k)))
    if a["workload"] != b["workload"]:
        print("WORKLOAD MISMATCH: %s vs %s" % (a["workload"], b["workload"]))
    for area in ("end_to_end", "per_layer"):
        for name, ma in a.get(area, {}).items():
            mb = b.get(area, {}).get(name)
            if not mb or ma["value"] in (None, 0) or mb["value"] is None:
                continue
            print("  %-34s %12.6g -> %12.6g %-6s (x%.3f)" % (
                name, ma["value"], mb["value"], ma["unit"],
                mb["value"] / ma["value"]))
    return 1 if mismatch else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="serve exactly this many requests after one set-up "
                         "instead of timed windows (exact-count mode)")
    ap.add_argument("--report-out", help="also write the full report here")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")

    binary = build()
    if not binary:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.requests:
        cmd += ["--requests", str(args.requests)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: workload run timed out")
        return 3
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no report from %s (exit %d)" % (binary, done.returncode))
        return 3
    if "end_to_end" not in report:
        log("perfbench: set-up check failed: %s" % report.get("setup_error"))
        return 3

    report["host"].update({
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    })
    host = report["host"]
    print("workload %s  seed %d  trace %d  %s" % (
        report["workload"], report["seed"], args.trace,
        "correct" if report["correct"] else "FAILED"))
    print("host: %s x%d | %s | %s | git %s | source %s" % (
        host["cpu_model"], host["nproc"], host["compiler"], host["build_type"],
        host["git_sha"] or "-", host["source_digest"]))
    print("attempted %d  failed %d  windows %.3f s  set-ups %s s  "
          "request lines held %.1f MiB" % (
              report["attempted"], report["failed"], report["elapsed_s"],
              ", ".join("%.3f" % s for s in report["setups_s"]),
              report["request_bytes"] / 2**20))
    print("steal per window %s; figures from %d of them" % (
        " ".join("%.1f%%" % (100 * s) for s in report["round_steal"]),
        len(report["kept_rps"])))
    print("digest %s  counts %s" % (report["digest"], json.dumps(report["counts"])))
    if report["traced_counts"]:
        print("traced counts %s" % json.dumps(report["traced_counts"]))
    for p in report["problems"]:
        print("problem: %s" % p)
    print_metrics("end-to-end", report["end_to_end"])
    if args.trace:
        print_metrics("per-layer (traced replay of the same requests)",
                      report["per_layer"])
    if args.report_out:
        with open(args.report_out, "w") as f:
            json.dump(report, f, indent=1)

    area = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name in declared_metrics(args.trace):
        m = area.get(name)
        if m is None:
            log("perfbench: atcd_perfbench reported no metric %s" % name)
            return 3
        value = m["value"]
        if value is None:
            if not args.trace:
                log("perfbench: %s withheld (too few samples); run longer" % name)
                return 3
            value = 0  # withheld or unexercised; the table above says which
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
