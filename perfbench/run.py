#!/usr/bin/env python3
"""Run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload linerate_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 7                 # all three workloads

Builds the simulator and the metro_perfbench driver from the checkout's
sources (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs one workload (or all of them), checks the
driver's report against BENCHMARK.json, prints every metric with its unit
and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the run's spans as a Chrome trace next to the report).
Exits 1 when any run fails its correctness checks, the build fails, or
the report does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("linerate_stream", "flows_16k", "low_load_shared")
# One workload invocation, build excluded, must end well inside 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configure (once) and build metro_perfbench; returns the binary path."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "metro_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} did not finish: {e}")
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (exit {rc}); full log in {log_path}")
    return out / "metro_perfbench"


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(binary, out, name, args):
    results = out / "results"
    results.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    report_path = results / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--report", str(report_path)]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}.spans.json")]
    if args.force_mismatch:
        cmd.append("--force-mismatch")
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    if rc not in (0, 1) or not report_path.exists():
        fail(f"{name}: driver exited {rc} without a report")
    report = json.loads(report_path.read_text())
    report["manifest"]["git_revision"] = git_revision()
    report["driver_exit"] = rc
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def checked_metrics(report, spec, section):
    """The report's metrics for `section`, in BENCHMARK.json order; every
    declared metric must be present with the declared unit."""
    have = report[section]
    picked = {}
    for m in spec[section]:
        got = have.get(m["name"])
        if got is None:
            fail(f"{report['workload']}: metric {m['name']} missing from the report")
        if got["unit"] != m["unit"]:
            fail(f"{report['workload']}: metric {m['name']} in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        picked[m["name"]] = got
    return picked


def print_report(report, section):
    mf = report["manifest"]
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}"
          f"  scale {report['scale']} ==")
    print("manifest: " + json.dumps(mf, sort_keys=True))
    rows = report[section]
    if section == "per_layer":
        rows = dict(report["end_to_end"], **rows)
    paper = {p["metric"]: p for p in report["paper"]}
    width = max(len(n) for n in rows)
    for name, m in rows.items():
        line = f"  {name:<{width}}  {m['value']:>16.6g} {m['unit']:<8} n={m['samples']}"
        if name in paper:
            line += f"   paper: {paper[name]['value']:g} ({paper[name]['source']})"
        print(line)
    checks = report["checks"]
    print(f"  checks: {report['attempted'] - report['failed']}/{report['attempted']} runs passed;"
          f" oracle fingerprint {checks['oracle_fingerprint']};"
          f" packets {checks['conservation']};"
          f" phase coverage {checks['phase_coverage_pct']:.3f}%")
    for r in report["runs"]:
        if r["error"]:
            print(f"  FAILED run {r['id']}: {r['error']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: 10x shorter windows, 2^14 flows (smoke test)")
    ap.add_argument("--force-mismatch", action="store_true",
                    help="run one timed run on a perturbed seed (must be caught)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path.name} not found next to perfbench/")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")
    section = "per_layer" if args.trace else "end_to_end"

    out = build_dir()
    binary = build(out)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        report = run_workload(binary, out, name, args)
        print_report(report, section)
        attempted += report["attempted"]
        failed += report["failed"]
        if report["driver_exit"] != 0 and report["failed"] == 0:
            failed += 1  # a failed whole-invocation check (e.g. phase coverage)
        prefix = "" if len(names) == 1 else name + "."
        for mname, m in checked_metrics(report, spec, section).items():
            metrics[prefix + mname] = {"value": m["value"], "unit": m["unit"]}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
