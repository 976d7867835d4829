#!/usr/bin/env python3
"""Smoke test of the repo benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload, in both modes (--trace 0 and 1), runs perfbench/run.py
with --scale tiny --seconds 1 and checks that it exits 0, that every metric
BENCHMARK.json declares for the mode is printed with its unit (in the
human-readable table and in the final JSON line), and that all runs passed.
Then forces a fingerprint mismatch and checks that it is counted as a
failed run and makes the benchmark exit non-zero. Exits 1 on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
WORKLOADS = ("linerate_stream", "flows_16k", "low_load_shared")

problems = []


def run(*extra):
    p = subprocess.run(RUN + ["--scale", "tiny", "--seconds", "1", "--seed", "5", *extra],
                       capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, lines, result


def check(cond, msg):
    if not cond:
        problems.append(msg)
        print(f"FAIL: {msg}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            p, lines, result = run("--workload", name, "--trace", str(trace))
            tag = f"{name} trace {trace}"
            check(p.returncode == 0, f"{tag}: exit {p.returncode}: {p.stderr.strip()[-400:]}")
            check(result is not None, f"{tag}: no JSON result line")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: correct={result['correct']} failed={result['failed']}")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{tag}: metric {m['name']} [{m['unit']}] missing or mislabelled: {got}")
                printed = any(ln.split()[:1] == [m["name"]] and f" {m['unit']} " in ln
                              for ln in lines[:-1])
                check(printed, f"{tag}: {m['name']} not printed with unit {m['unit']}")
            print(f"ok: {tag} ({result['attempted']} runs)")

    p, lines, result = run("--workload", "linerate_stream", "--trace", "0", "--force-mismatch")
    check(p.returncode != 0, "forced mismatch: benchmark exited 0")
    check(result is not None and not result["correct"] and result["failed"] >= 1,
          f"forced mismatch: not counted as a failed run: {result}")
    check(any("FAILED run 1" in ln and "heap oracle" in ln for ln in lines),
          "forced mismatch: the failed run is not reported")
    if result is not None:
        print(f"ok: forced mismatch counted ({result['failed']}/{result['attempted']} failed)")

    if problems:
        print(f"{len(problems)} problem(s)")
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
