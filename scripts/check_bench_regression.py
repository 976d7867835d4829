#!/usr/bin/env python3
"""Noise-aware perf-regression gate for the tracked BENCH_*.json baselines.

Compares a freshly generated bench report (BENCH_kernel.json /
BENCH_crypto.json) against the tracked baseline and fails (exit 1) when a
metric regressed by more than the run-to-run noise the reports themselves
record. The point: on a 1-core CI box, "wall went from 1.91 s to 2.05 s"
is only a finding if 0.14 s clears the jitter — so the tolerance for every
metric is

    max(rel_tol * |baseline_median|, iqr_mult * max(baseline_IQR, fresh_IQR))

and only *trial-backed* metrics are gated at all: the walker arms itself
inside any JSON object that carries a "trials" key (the bench convention
for repeated-trial blocks) and pairs every `<name>_median` with its
`<name>_iqr` sibling (missing IQR => 0, i.e. the relative tolerance alone
governs). Single-shot numbers elsewhere in the report are never gated —
they carry no noise estimate.

Metric direction is inferred from the name, matching the benches' naming
convention (docs/BENCHMARKS.md):

    lower is better   *wall_seconds*, *_ns_median
    higher is better  *speedup*, *per_sec*, *_pps*
    anything else     not gated

Like for like: the reports record their window mode ("fast_mode" in the
kernel report, "mode" in the crypto report), and window length moves
every wall time and packet rate. A fast report is therefore only ever
compared with a fast baseline: when the modes differ the gate refuses
to compare at all (exit 2). CI runs each bench in its tracked
baseline's mode.

--ratios-only narrows the gate further to *speedup* metrics. Absolute
per-op numbers (ns, pps) are host-speed dependent: a tracked baseline
generated on one box compared against a fresh run on a CI runner (or on
the same box at a different turbo/thermal state) can shift every absolute
number by 40%+ while the scalar-vs-fast ratios barely move, because both
sides of a ratio slow down together. CI therefore gates with
--ratios-only --loose; the full metric set is for same-machine,
same-state comparisons (and the --self-test ctest entries, which prove
the full gate can fail).

Exit codes: 0 clean (improvements are reported, never fatal), 1 at least
one regression beyond tolerance, 2 usage/IO error or mismatched modes.

--self-test ignores the fresh report, synthesises a degraded copy of the
baseline (lower-better metrics x2, higher-better x0.5) and exits 0 iff
the gate catches it — the CI proof that the gate can actually fail.
"""

import argparse
import copy
import json
import sys

LOWER_BETTER = ("wall_seconds",)
LOWER_BETTER_SUFFIX = ("ns_median",)
HIGHER_BETTER = ("speedup", "per_sec", "_pps")
MODE_KEYS = ("fast_mode", "mode")


def direction(key):
    """'lower' / 'higher' / None (not gated) for a *_median key."""
    if any(t in key for t in HIGHER_BETTER):
        return "higher"
    if any(t in key for t in LOWER_BETTER) or key.endswith(LOWER_BETTER_SUFFIX):
        return "lower"
    return None


def collect_metrics(node, path="", armed=False):
    """Yield (path, key, median, iqr) for every trial-backed *_median leaf."""
    if isinstance(node, dict):
        armed = armed or "trials" in node
        for key, value in node.items():
            sub = f"{path}/{key}"
            if isinstance(value, (dict, list)):
                yield from collect_metrics(value, sub, armed)
            elif not armed or isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            elif key.endswith("_median"):
                iqr = node.get(key[: -len("_median")] + "_iqr", 0.0)
                if not isinstance(iqr, (int, float)):
                    iqr = 0.0
                yield sub, key, float(value), float(iqr)
            elif "speedup" in key and not key.endswith("_iqr"):
                # Ratio-of-medians keys (x-factor convention): no IQR
                # sibling, the relative tolerance alone governs.
                yield sub, key, float(value), 0.0
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from collect_metrics(value, f"{path}[{i}]", armed)


def report_mode(doc):
    for key in MODE_KEYS:
        if key in doc:
            return doc[key]
    return None


def compare(baseline, fresh, rel_tol, iqr_mult, strict_missing, out=sys.stdout,
            ratios_only=False):
    """Return (regressions, improvements, missing) metric lists."""
    fresh_metrics = {p: (m, q) for p, _, m, q in collect_metrics(fresh)}
    regressions, improvements, missing = [], [], []
    gated = 0
    for path, key, base_med, base_iqr in collect_metrics(baseline):
        sense = direction(key)
        if sense is None:
            continue
        if ratios_only and "speedup" not in key:
            continue
        if path not in fresh_metrics:
            missing.append(path)
            continue
        fresh_med, fresh_iqr = fresh_metrics[path]
        gated += 1
        worse = (fresh_med - base_med) if sense == "lower" else (base_med - fresh_med)
        tol = max(rel_tol * abs(base_med), iqr_mult * max(base_iqr, fresh_iqr))
        line = (
            f"{path}: {base_med:.6g} -> {fresh_med:.6g} "
            f"(tolerance {tol:.3g}, IQR base {base_iqr:.3g} / fresh {fresh_iqr:.3g})"
        )
        if worse > tol:
            regressions.append(line)
        elif -worse > tol:
            improvements.append(line)
    print(f"gated {gated} trial-backed metrics", file=out)
    for line in improvements:
        print(f"IMPROVED   {line}", file=out)
    for path in missing:
        print(f"MISSING    {path} (in baseline, absent from fresh report)", file=out)
    for line in regressions:
        print(f"REGRESSION {line}", file=out)
    if strict_missing and missing:
        regressions = regressions + [f"missing metric {p}" for p in missing]
    return regressions, improvements, missing


def degrade(doc):
    """Self-test fixture: every gated metric made decisively worse."""
    bad = copy.deepcopy(doc)

    def walk(node, armed=False):
        if isinstance(node, dict):
            armed = armed or "trials" in node
            for key, value in node.items():
                if isinstance(value, (dict, list)):
                    walk(value, armed)
                elif (
                    armed
                    and (key.endswith("_median") or "speedup" in key)
                    and not key.endswith("_iqr")
                    and not isinstance(value, bool)
                    and isinstance(value, (int, float))
                ):
                    sense = direction(key)
                    if sense == "lower":
                        node[key] = value * 2.0
                    elif sense == "higher":
                        node[key] = value * 0.5
        elif isinstance(node, list):
            for value in node:
                walk(value, armed)

    walk(bad)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="tracked BENCH_*.json")
    ap.add_argument("--fresh", help="freshly generated report (omit with --self-test)")
    ap.add_argument(
        "--rel-tol",
        type=float,
        default=0.10,
        help="relative tolerance on the baseline median (default 0.10)",
    )
    ap.add_argument(
        "--iqr-mult",
        type=float,
        default=3.0,
        help="IQR multiplier in the noise floor (default 3)",
    )
    ap.add_argument(
        "--loose",
        action="store_true",
        help="CI fast-mode tolerances (rel-tol 0.35, iqr-mult 6) unless "
        "overridden explicitly",
    )
    ap.add_argument(
        "--ratios-only",
        action="store_true",
        help="gate only *speedup* ratio metrics — the host-speed-robust "
        "subset; use when baseline and fresh report come from different "
        "machines or CPU states (the CI case)",
    )
    ap.add_argument(
        "--strict-missing",
        action="store_true",
        help="treat baseline metrics absent from the fresh report as regressions",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="synthesise a slowed-down report from the baseline and verify "
        "the gate catches it",
    )
    args = ap.parse_args()
    if args.loose:
        defaults = {"rel_tol": 0.10, "iqr_mult": 3.0}
        if args.rel_tol == defaults["rel_tol"]:
            args.rel_tol = 0.35
        if args.iqr_mult == defaults["iqr_mult"]:
            args.iqr_mult = 6.0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read baseline {args.baseline}: {e}", file=sys.stderr)
        return 2

    if args.self_test:
        regressions, _, _ = compare(
            baseline, degrade(baseline), args.rel_tol, args.iqr_mult, False
        )
        if regressions:
            print(f"self-test: gate caught {len(regressions)} synthetic regressions — OK")
            return 0
        print("self-test: gate FAILED to catch the synthetic slowdown", file=sys.stderr)
        return 1

    if not args.fresh:
        print("--fresh is required unless --self-test", file=sys.stderr)
        return 2
    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read fresh report {args.fresh}: {e}", file=sys.stderr)
        return 2

    if report_mode(baseline) != report_mode(fresh):
        print(
            f"report modes differ (baseline {report_mode(baseline)!r}, fresh "
            f"{report_mode(fresh)!r}): compare fast with fast, full with full",
            file=sys.stderr,
        )
        return 2

    regressions, improvements, _ = compare(
        baseline, fresh, args.rel_tol, args.iqr_mult, args.strict_missing,
        ratios_only=args.ratios_only,
    )
    if regressions:
        print(f"FAIL: {len(regressions)} regression(s) beyond tolerance")
        return 1
    print(f"OK: no regressions beyond tolerance ({len(improvements)} improvement(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
