#!/usr/bin/env python3
"""Compares two result sets of the benchmark, one row per (workload, metric).

    python3 bench/ledger/compare.py bench/ledger/baseline/seed.json \
        build-ledger/results.json [--layers]

A result set is what `run.py --all --out FILE` writes (the committed
baseline has the same format). Runs that are not `correct` are left out of
every row. Each workload first gets two rows of its own:

    runs          valid runs of each set; the verdict is `invalid` if
                  either set has a run that is not correct or has no result
    failed_ops    failed ops summed over each set's runs; `regressed` if
                  the second set has more

Then, for every end-to-end metric of BENCHMARK.json and every count metric
of GATED_COUNTS, a row gives both sets' median and quartiles, the share of
seed-matched pairs the second set wins (ties count for neither), and a
verdict against the metric's bound:

    within bound  the second median is not worse by more than the bound
    regressed     it is worse by more than the bound
    unresolved    a set's spread (quartile distance over median) exceeds the
                  bound, so the difference cannot be judged, unless every
                  run of the second set beats every run of the first

--layers adds the other per-layer metrics of the traced runs, without
verdicts. Exits 1 if any row is regressed or invalid. Stdlib only.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

# Per-layer count metrics gated here at these bounds. BENCHMARK.json cannot
# gate them: an end-to-end metric must be nonzero on every workload, and
# hot_get reads no block. Blocks read per GET is the paper's lookup cost
# (Eq. 3), so a change to filter allocation shows in these two rows; across
# ten seeds they spread at most 0.3%.
GATED_COUNTS = {
    "lsm.run_probes_per_get": 0.01,
    "monkey.measured_lookup_cost": 0.01,
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def valid(run):
    return bool(run["result"]) and run["result"]["correct"]


def by_seed(result_set, workload, trace, metric):
    out = {}
    for run in result_set["runs"]:
        if (run["workload"] == workload and run["trace"] == trace and
                valid(run) and metric in run["result"]["metrics"]):
            out[run["seed"]] = run["result"]["metrics"][metric]["value"]
    return out


def run_rows(sets, workload):
    """The workload's `runs` and `failed_ops` rows: (name, cells, verdict)."""
    runs = [[r for r in s["runs"] if r["workload"] == workload] for s in sets]
    good = [sum(1 for r in rs if valid(r)) for rs in runs]
    failed = [sum(r["result"]["failed"] for r in rs if r["result"])
              for rs in runs]
    return [
        ("runs", ["%d of %d valid" % (g, len(rs)) for g, rs in zip(good, runs)],
         "invalid" if any(g < len(rs) for g, rs in zip(good, runs))
         else "ok"),
        ("failed_ops", [str(f) for f in failed],
         "regressed" if failed[1] > failed[0] else "within bound"),
    ]


def better(x, y, direction):
    """True if x is better than y."""
    return x < y if direction == "lower" else x > y


def judge(a, b, direction, bound):
    """Verdict for first-set values a against second-set values b."""
    ma, mb = statistics.median(a), statistics.median(b)
    if ma:
        worse = (mb - ma) / abs(ma)
    else:  # From zero, any move is infinitely large.
        worse = 0.0 if mb == ma else math.copysign(math.inf, mb - ma)
    if direction == "higher":
        worse = -worse
    if max(rel_spread(a), rel_spread(b)) > bound:
        if all(better(y, x, direction) for x in a for y in b):
            return "within bound"
        return "unresolved"
    return "regressed" if worse > bound else "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first", help="result set of the parent")
    parser.add_argument("second", help="result set of the change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--layers", action="store_true",
                        help="also print the other per-layer metrics "
                        "(no verdicts)")
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    sets = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as f:
            sets.append(json.load(f))

    # (trace setting, metric, bound or None for no verdict).
    rows = [(0, m, m["bound"]) for m in bench["end_to_end"]]
    for m in bench["per_layer"]:
        if m["name"] in GATED_COUNTS:
            rows.append((1, m, GATED_COUNTS[m["name"]]))
        elif args.layers:
            rows.append((1, m, None))
    header = "%-9s %-30s %-29s %-29s %5s  %s" % (
        "workload", "metric", "first: median [q1, q3]",
        "second: median [q1, q3]", "wins", "verdict")
    print(header)
    print("-" * len(header))
    counts = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for name, cells, verdict in run_rows(sets, workload):
            counts[verdict] = counts.get(verdict, 0) + 1
            print("%-9s %-30s %-29s %-29s %5s  %s" % (
                workload, name, cells[0], cells[1], "-", verdict))
        for trace, m, bound in rows:
            a_runs = by_seed(sets[0], workload, trace, m["name"])
            b_runs = by_seed(sets[1], workload, trace, m["name"])
            if not a_runs or not b_runs:
                verdict = "missing"
                print("%-9s %-30s %s" % (workload, m["name"], verdict))
                counts[verdict] = counts.get(verdict, 0) + 1
                continue
            a, b = list(a_runs.values()), list(b_runs.values())
            pairs = [(a_runs[s], b_runs[s]) for s in a_runs if s in b_runs]
            wins = sum(1 for x, y in pairs if better(y, x, m["better"]))
            cells = []
            for v in (a, b):
                q1, q2, q3 = quartiles(v)
                cells.append("%.4g [%.4g, %.4g]" % (q2, q1, q3))
            verdict = (judge(a, b, m["better"], bound)
                       if bound is not None else "")
            if verdict:
                counts[verdict] = counts.get(verdict, 0) + 1
            print("%-9s %-30s %-29s %-29s %5s  %s" % (
                workload, m["name"], cells[0], cells[1],
                "%d/%d" % (wins, len(pairs)) if pairs else "-", verdict))
    print()
    print(", ".join("%d %s" % (n, v) for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") or counts.get("invalid") else 0


if __name__ == "__main__":
    sys.exit(main())
