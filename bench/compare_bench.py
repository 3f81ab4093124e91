#!/usr/bin/env python3
"""Compare google-benchmark JSON outputs and fail on regressions.

Usage:
    compare_bench.py BASELINE.json CANDIDATE.json [CANDIDATE.json ...]
                     [--threshold 0.10] [--json REPORT.json]

Benchmarks are matched by name; only plain `iteration` entries are
considered (mean/median/stddev/BigO aggregates are skipped).  Every
iteration entry of a name is a sample: repetitions inside one file and
entries from several candidate files (independent runs of the binary) are
merged.  Each sample's real_time is converted to ns from its `time_unit`.

A benchmark counts as a regression when its minimum candidate real_time
exceeds its minimum baseline real_time by more than the threshold fraction
(default 10%).  The minimum is the estimator because interference from
other processes only ever adds time; the maximum is printed next to it so
the spread shows.  With one sample per row the minimum is that sample.
Benchmarks present in only one side are reported but never fail the run,
so the baseline does not have to be regenerated every time a benchmark is
added.

Besides the per-benchmark table the script prints a geometric-mean speedup
over all shared benchmarks (baseline/candidate, so >1 is faster), and
--json writes the full comparison as a machine-readable report for CI
artifacts and perf-trajectory tracking.

Exit status: 0 when no benchmark regresses, 1 otherwise, 2 on usage errors
(including unreadable or empty inputs).
"""

import argparse
import json
import math
import sys

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_samples(paths):
    """Maps benchmark name -> list of real_time samples (ns) over all paths."""
    samples = {}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            fail(f"cannot read {path}: {error}")
        found = 0
        for entry in data.get("benchmarks", []):
            if entry.get("run_type", "iteration") != "iteration":
                continue  # skip mean/median/stddev/BigO aggregates
            name = entry.get("name")
            time = entry.get("real_time")
            if name is None or time is None:
                continue
            unit = entry.get("time_unit", "ns")
            if unit not in NS_PER_UNIT:
                fail(f"{path}: {name} has unknown time_unit {unit!r}")
            samples.setdefault(name, []).append(float(time) * NS_PER_UNIT[unit])
            found += 1
        if not found:
            fail(f"no benchmark entries found in {path}")
    return samples


def compare_rows(baseline, candidate, threshold):
    """One row per benchmark in both sample maps, gated on the minimum."""
    rows = []
    for name in sorted(set(baseline) & set(candidate)):
        base = min(baseline[name])
        cand = min(candidate[name])
        ratio = cand / base if base > 0 else float("inf")
        rows.append(
            {
                "name": name,
                "baseline_ns": base,
                "candidate_ns": cand,
                "candidate_max_ns": max(candidate[name]),
                "candidate_samples": len(candidate[name]),
                "ratio": ratio,
                "speedup": base / cand if cand > 0 else float("inf"),
                "regressed": ratio > 1.0 + threshold,
            }
        )
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline benchmark JSON")
    parser.add_argument(
        "candidates",
        nargs="+",
        metavar="candidate",
        help="candidate benchmark JSON; several files are independent runs",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed fractional slowdown before failing (default 0.10)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        dest="json_out",
        help="write the comparison as a machine-readable JSON report",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("threshold must be non-negative")

    baseline = load_samples([args.baseline])
    candidate = load_samples(args.candidates)

    rows = compare_rows(baseline, candidate, args.threshold)
    only_baseline = sorted(set(baseline) - set(candidate))
    only_candidate = sorted(set(candidate) - set(baseline))
    regressions = [(row["name"], row["ratio"]) for row in rows if row["regressed"]]

    width = max((len(row["name"]) for row in rows), default=4)
    print(
        f"{'benchmark'.ljust(width)}  {'baseline':>12}  {'cand min':>12}  "
        f"{'cand max':>12}  {'n':>3}  {'ratio':>7}"
    )
    for row in rows:
        marker = "  REGRESSED" if row["regressed"] else ""
        print(
            f"{row['name'].ljust(width)}  {row['baseline_ns']:12.1f}  "
            f"{row['candidate_ns']:12.1f}  {row['candidate_max_ns']:12.1f}  "
            f"{row['candidate_samples']:3d}  {row['ratio']:7.3f}{marker}"
        )

    for name in only_baseline:
        print(f"note: {name} only in baseline")
    for name in only_candidate:
        print(f"note: {name} only in candidate")

    # Geometric mean of the per-benchmark speedups: the single number the
    # perf trajectory tracks across PRs.
    finite = [row["speedup"] for row in rows if 0 < row["speedup"] < float("inf")]
    geomean = (
        math.exp(sum(math.log(s) for s in finite) / len(finite)) if finite else None
    )
    if geomean is not None:
        print(
            f"geomean speedup: {geomean:.3f}x over {len(finite)} shared benchmark(s)"
        )

    if args.json_out:
        report = {
            "baseline": args.baseline,
            "candidates": args.candidates,
            "threshold": args.threshold,
            "estimator": "min",
            "geomean_speedup": geomean,
            "benchmarks": rows,
            "only_baseline": only_baseline,
            "only_candidate": only_candidate,
            "regressions": [
                {"name": name, "ratio": ratio} for name, ratio in regressions
            ],
        }
        try:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
                handle.write("\n")
        except OSError as error:
            fail(f"cannot write {args.json_out}: {error}")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.3f}x", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
