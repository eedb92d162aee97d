#!/usr/bin/env python3
"""Gate a bench's --json output: fail on a >30% per-series throughput
regression against a checked-in baseline, or on instrumentation overhead.

Usage:
  check_hotpath_regression.py --baseline bench/baselines/BENCH_shard_scaling.json \
      --current current.jsonl [--threshold 0.7] [--bench shard_scaling]
  check_hotpath_regression.py --merge-min run1.jsonl run2.jsonl ... > baseline.json
  check_hotpath_regression.py --overhead current.jsonl [--overhead-threshold 0.05]

--bench selects which bench's rows to read: shard_scaling (the default),
the live bench, whose pps series are `<shape>/rtc/shards<N>` (the sharded
plane), each row the median of repeated runs; or classifier_scale (series
`<hit|miss>/<tuple|linear>/rules<N>k`, pps = lookups per second).

A failing series is printed with the steal and system shares of the CPUs'
time over its runs, when its rows carry them (steal_share, system_share:
/proc/stat deltas), so a failure on a host whose hypervisor took the time
reads as such. The shares gate nothing.

--overhead fails when, for any `<base>-acct` / `<base>-noacct` pair in one
run, the median paired overhead 1 - acct/noacct exceeds
--overhead-threshold (default 5%). The bench prints one line per rep and
side, the side that runs first alternating; lines pair in emission order,
because back-to-back reps share the host's load regime, and the median
keeps a few load-tainted reps from failing a healthy run.

Files hold one JSON object per line as emitted by the bench. A series with
several lines (e.g. concatenated runs) reads as its minimum pps:
conservative for the baseline, forgiving of noise in the current run.
`--merge-min` prints that reduction, which is how baselines are produced.
"""

import argparse
import json
import sys


def load_series_lines(paths, bench):
    """dict series -> list of rows in file (emission) order."""
    series = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if row.get("bench") != bench:
                    continue
                if row.get("series") is None or row.get("pps") is None:
                    continue
                series.setdefault(row["series"], []).append(row)
    return series


def load_series(paths, bench):
    """dict series -> the row with the minimum pps across the files."""
    return {name: min(rows, key=lambda row: row["pps"])
            for name, rows in load_series_lines(paths, bench).items()}


def cpu_shares(rows):
    """' (steal S%, system Y%)' over rows that carry the shares, else ''."""
    rows = [row for row in rows if "steal_share" in row]
    if not rows:
        return ""
    steal = sum(row["steal_share"] for row in rows) / len(rows)
    system = sum(row.get("system_share", 0.0) for row in rows) / len(rows)
    return f" (steal {steal:.1%}, system {system:.1%})"


def report(failures, problem, summary):
    """Exit status 1 with the failures on stderr, else 0 with the summary."""
    if failures:
        print(f"\n{len(failures)} {problem}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\n{summary}")
    return 0


def check_overhead(path, bench, threshold):
    current = load_series_lines([path], bench)
    pairs = [(name[: -len("-noacct")] + "-acct", name)
             for name in sorted(current)
             if name.endswith("-noacct")
             and name[: -len("-noacct")] + "-acct" in current]
    if not pairs:
        print(f"error: no acct/noacct series pairs in {path}",
              file=sys.stderr)
        return 2
    failures = []
    for acct_name, noacct_name in pairs:
        acct_pps = [row["pps"] for row in current[acct_name]]
        noacct_pps = [row["pps"] for row in current[noacct_name]]
        per_rep = sorted(1 - a / n if n > 0 else 0.0
                         for a, n in zip(acct_pps, noacct_pps))
        overhead = per_rep[len(per_rep) // 2]
        status = "ok" if overhead <= threshold else "OVERHEAD"
        print(f"{acct_name:24s} median-paired-overhead={overhead:7.1%} "
              f"({len(per_rep)} reps)  {status}")
        if overhead > threshold:
            failures.append(
                f"{acct_name}: accounting costs {overhead:.1%} pps "
                f"(median of {len(per_rep)} paired reps, "
                f"> {threshold:.0%})"
                + cpu_shares(current[acct_name] + current[noacct_name]))
    return report(failures, "series exceed the accounting-overhead budget",
                  f"all {len(pairs)} acct/noacct pairs within "
                  f"{threshold:.0%} overhead")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--threshold", type=float, default=0.7,
                        help="fail when current < threshold * baseline")
    parser.add_argument("--merge-min", nargs="+", metavar="RUN",
                        help="merge runs into a min-per-series baseline")
    parser.add_argument("--bench", default="shard_scaling",
                        help="bench name whose JSON rows to compare")
    parser.add_argument("--overhead", metavar="RUN",
                        help="check acct/noacct series pairs in one run")
    parser.add_argument("--overhead-threshold", type=float, default=0.05,
                        help="max tolerated accounting overhead (fraction)")
    args = parser.parse_args()

    if args.overhead:
        return check_overhead(args.overhead, args.bench,
                              args.overhead_threshold)

    if args.merge_min:
        merged = load_series(args.merge_min, args.bench)
        for name in sorted(merged):
            print(json.dumps(merged[name], sort_keys=True))
        return 0

    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required (or --merge-min)")

    baseline = load_series([args.baseline], args.bench)
    current = load_series([args.current], args.bench)
    if not baseline:
        print(f"error: no baseline series in {args.baseline}", file=sys.stderr)
        return 2
    if not current:
        print(f"error: no current series in {args.current}", file=sys.stderr)
        return 2

    failures = []
    for name in sorted(baseline):
        base_pps = baseline[name]["pps"]
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        cur_pps = current[name]["pps"]
        ratio = cur_pps / base_pps if base_pps > 0 else float("inf")
        status = "ok" if ratio >= args.threshold else "REGRESSION"
        print(f"{name:24s} baseline={base_pps:12.0f} current={cur_pps:12.0f} "
              f"ratio={ratio:5.2f}  {status}")
        if ratio < args.threshold:
            failures.append(
                f"{name}: {cur_pps:.0f} pps < {args.threshold:.0%} of "
                f"baseline {base_pps:.0f} pps" + cpu_shares([current[name]]))

    return report(failures, f"series regressed >{1 - args.threshold:.0%}",
                  f"all {len(baseline)} series within "
                  f"{1 - args.threshold:.0%} of baseline")


if __name__ == "__main__":
    sys.exit(main())
