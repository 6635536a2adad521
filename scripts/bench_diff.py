#!/usr/bin/env python3
"""Compare two Obs_bench JSON artifacts and flag wall-clock regressions.

Usage: bench_diff.py BASELINE.json CURRENT.json [--threshold 0.25]
                     [--fail-below RATIO] [--gate-prefix PREFIX ...]

Prints a Markdown table (suitable for $GITHUB_STEP_SUMMARY) of every
section present in both files, with the relative wall-clock change and
a flag on sections slower than the threshold (default +25%).  Sections
present in only one file are listed but not flagged.

By default exit status is always 0: the diff is informational.  Bench
runners are noisy shared machines, so a flagged regression means
"look", not "fail" — the tier-1 tests, not this script, gate merges.

--fail-below RATIO adds the blocking check: for every section whose
name starts with one of the --gate-prefix values (default: just
"kernel") and that is present in both files, the speed ratio
baseline_wall / current_wall must stay >= RATIO.  The
kernel microbenches are single-core, allocation-free-on-warm loops
with far less machine noise than the service sections, so a deep floor
(CI uses 0.2, i.e. "no more than 5x slower than the committed
baseline") is quiet on shared runners yet still fails a return to
boxed per-call storage, which costs 5-10x.  The serve_recovery sections
are gated separately (CI uses 0.1 for them — service sections see more
noise than kernels, so their floor is deeper).  Sections matching no
gate prefix are never blocking, whatever the flags say.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {r["name"]: r for r in doc.get("results", [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative slowdown that gets flagged (0.25 = +25%%)")
    ap.add_argument("--fail-below", type=float, default=None, metavar="RATIO",
                    help="exit 1 if any gated section runs below this "
                         "speed ratio vs the baseline (1.0 = as fast as "
                         "baseline, 0.2 = allow up to 5x slower)")
    ap.add_argument("--gate-prefix", action="append", default=None,
                    metavar="PREFIX",
                    help="section-name prefix gated by --fail-below; "
                         "repeatable (default: kernel)")
    args = ap.parse_args()
    gate_prefixes = tuple(args.gate_prefix or ["kernel"])

    try:
        base = load(args.baseline)
        cur = load(args.current)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_diff: cannot read artifacts: {e}")
        return 0

    print("### Benchmark wall-clock vs committed baseline")
    print()
    print(f"baseline `{args.baseline}` vs current `{args.current}` "
          f"(flag at +{args.threshold:.0%})")
    print()
    print("| section | baseline (s) | current (s) | change | |")
    print("|---|---:|---:|---:|---|")

    flagged = 0
    failed = []
    for name in sorted(set(base) | set(cur)):
        b = base.get(name)
        c = cur.get(name)
        if b is None:
            print(f"| {name} | — | {c['wall_s']:.4f} | new | |")
            continue
        if c is None:
            print(f"| {name} | {b['wall_s']:.4f} | — | removed | |")
            continue
        bw, cw = b["wall_s"], c["wall_s"]
        if bw <= 0.0:
            print(f"| {name} | {bw:.4f} | {cw:.4f} | n/a | |")
            continue
        rel = (cw - bw) / bw
        mark = ""
        if rel > args.threshold:
            mark = "⚠️ regression"
            flagged += 1
        if (args.fail_below is not None and name.startswith(gate_prefixes)
                and cw > 0.0 and bw / cw < args.fail_below):
            mark = f"❌ below {args.fail_below:g}x floor"
            failed.append((name, bw / cw))
        print(f"| {name} | {bw:.4f} | {cw:.4f} | {rel:+.1%} | {mark} |")

    print()
    if flagged:
        print(f"{flagged} section(s) slower than the +{args.threshold:.0%} "
              "threshold (non-blocking; machines differ).")
    else:
        print("No section regressed past the threshold.")
    if args.fail_below is not None:
        if failed:
            for name, ratio in failed:
                print(f"FAIL: {name} runs at {ratio:.2f}x the baseline "
                      f"(floor {args.fail_below:g}x)")
            return 1
        print(f"All {'/'.join(gate_prefixes)} sections at or above the "
              f"{args.fail_below:g}x speed floor.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
