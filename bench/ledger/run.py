#!/usr/bin/env python3
"""The repository benchmark: builds bench/ledger and runs one workload.

    python3 bench/ledger/run.py --workload get_miss --seed 1 \
        --seconds 10 --trace 0

builds the ledger project into build-ledger/ (first run only), runs
`ledger` against a freshly spawned monkey_server, and prints every metric
by name with its unit. The last stdout line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, which adds a traced rerun of the closed
phase: the scraped /trace windows are merged, checked for gaps, checked
for nesting by tools/trace_view.py --check, and reduced to per-layer self
times.

    python3 bench/ledger/run.py --all --seeds 1-10 --out results.json

runs every workload at both trace settings for each seed and writes one
result set, the input format of compare.py.

Stdlib only. See README.md in this directory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-ledger")
LEDGER = os.path.join(BUILD, "ledger")
WORKLOADS = ["hot_get", "get_miss", "get_hit", "mixed_rw"]
LEDGER_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures build-ledger/ once, then brings ledger up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no repository tree to build at " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "ledger"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


# --- Trace analysis -----------------------------------------------------------


def is_nested(events):
    """True if ts-ordered B/E events pair up like brackets on each track."""
    stacks = {}
    for ev in events:
        stack = stacks.setdefault((ev.get("pid"), ev.get("tid")), [])
        if ev["ph"] == "B":
            stack.append(ev["name"])
        elif not stack or stack.pop() != ev["name"]:
            return False
    return not any(stacks.values())


def load_trace(trace_dir):
    """Merges the scraped /trace windows of the measured interval.

    Windows overlap, so events are deduplicated by (pid, tid, ts, name,
    phase). Each traced request takes the next request id and records its
    spans on the server's one event-loop thread, so the ids of the
    interval run without a gap: an id that never shows up, or a request
    whose spans do not pair up, was lost to a ring that wrapped before a
    scrape. Returns (events, requests lost).
    """
    with open(os.path.join(trace_dir, "phase.tsv"), encoding="utf-8") as f:
        start, end = (int(v) / 1e3 for v in f.read().split())
    seen = {}
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("scrape-"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as f:
                for ev in json.load(f)["traceEvents"]:
                    key = (ev["pid"], ev["tid"], ev["ts"], ev["name"],
                           ev["ph"])
                    seen.setdefault(key, ev)
    requests = {}
    for ev in sorted(seen.values(), key=lambda e: e["ts"]):
        if ev["ph"] in ("B", "E"):
            requests.setdefault(ev["args"]["request_id"], []).append(ev)
    kept, ids, lost = [], [], 0
    for rid, evs in requests.items():
        # Requests begun in the load or the warm-up are not measured.
        if evs[0]["ts"] < start or evs[-1]["ts"] > end:
            continue
        ids.append(rid)
        if is_nested(evs):
            kept.extend(evs)
        else:
            lost += 1
    if ids:
        lost += max(ids) - min(ids) + 1 - len(ids)
    return kept, lost


def self_times(events):
    """Per span name: count, total and self microseconds, summed E args.

    Self time is a span's duration minus the part its child spans cover.
    Also counts the SETs traced: a server.command with a db.write child
    is a write run of commands_in_run SETs.
    """
    stats = {}
    traced_sets = 0
    tracks = {}
    for ev in events:
        tracks.setdefault((ev.get("pid"), ev.get("tid")), []).append(ev)
    for evs in tracks.values():
        stack = []
        for ev in sorted(evs, key=lambda e: e["ts"]):
            if ev["ph"] == "B":
                stack.append({"name": ev["name"], "ts": ev["ts"],
                              "children": 0.0, "write": False})
                continue
            if not stack:
                continue
            span = stack.pop()
            dur = ev["ts"] - span["ts"]
            s = stats.setdefault(span["name"], {"n": 0, "dur": 0.0,
                                                "self": 0.0, "args": {}})
            s["n"] += 1
            s["dur"] += dur
            s["self"] += dur - span["children"]
            for k, v in ev.get("args", {}).items():
                if k != "request_id":
                    s["args"][k] = s["args"].get(k, 0) + v
            if span["name"] == "server.command" and span["write"]:
                traced_sets += ev.get("args", {}).get("commands_in_run", 0)
            if stack:
                stack[-1]["children"] += dur
                stack[-1]["write"] |= span["name"] == "db.write"
    return stats, traced_sets


def analyze_trace(trace_dir, report):
    """Checks the traced rerun and adds its per-layer metrics."""
    events, lost = load_trace(trace_dir)
    with open(os.path.join(trace_dir, "client-spans.json"),
              encoding="utf-8") as f:
        events.extend(json.load(f)["traceEvents"])
    events.sort(key=lambda e: e["ts"])
    merged = os.path.join(trace_dir, "merged.json")
    with open(merged, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events}, f)
    check = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "trace_view.py"),
         "--check", merged],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    report.check("trace_nesting", check.returncode == 0,
                 "tools/trace_view.py --check " +
                 (check.stderr.strip().splitlines() or ["clean"])[-1])
    report.check("trace_no_loss", lost == 0,
                 "%d traced requests lost between scrapes" % lost)

    stats, sets = self_times(events)
    print("  traced spans (self time = duration - child spans):")
    print("    %-22s %8s %12s %12s" % ("span", "count", "self_us", "dur_us"))
    for name in sorted(stats):
        s = stats[name]
        print("    %-22s %8d %12.3f %12.3f" % (name, s["n"], s["self"] / s["n"],
                                              s["dur"] / s["n"]))

    def total(name, field="self"):
        return stats.get(name, {}).get(field, 0.0)

    def count(name):
        return stats.get(name, {}).get("n", 0)

    def arg(name, a):
        return stats.get(name, {}).get("args", {}).get(a, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    keys = count("db.get") + arg("db.multiget", "keys")
    m = report.metric
    m("server.parse_us_per_cmd", ratio(total("server.parse"),
                                       arg("server.parse", "commands_parsed")),
      "us")
    m("server.command_self_us_per_cmd",
      ratio(total("server.command"), arg("server.command", "commands_in_run")),
      "us")
    m("lsm.get_self_us_per_key",
      ratio(total("db.get") + total("db.multiget"), keys), "us")
    m("bloom.probe_us_per_probe",
      ratio(total("table.filter_probe"), count("table.filter_probe")), "us")
    m("sstable.fence_seek_us",
      ratio(total("table.fence_seek"), count("table.fence_seek")), "us")
    m("sstable.block_fetch_us",
      ratio(total("table.block_fetch"), count("table.block_fetch")), "us")
    m("lsm.write_self_us_per_set", ratio(total("db.write"), sets), "us")
    m("lsm.write_queue_wait_us_per_set",
      ratio(total("db.write_queue_wait", "dur"), sets), "us")
    m("lsm.wal_append_us_per_set", ratio(total("db.wal_append", "dur"), sets),
      "us")
    m("memtable.apply_us_per_set",
      ratio(total("db.memtable_apply", "dur"), sets), "us")
    m("client.batch_us",
      ratio(total("client.batch", "dur"), count("client.batch")), "us")
    m("obs.trace_spans", sum(s["n"] for s in stats.values()), "count")
    m("obs.trace_requests_lost", lost, "count")


# --- One run ------------------------------------------------------------------


class Report:
    def __init__(self):
        self.metrics = {}
        self.ok = True

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}
        print("  %-34s %14.6g %s" % (name, value, unit))

    def check(self, name, ok, detail):
        self.ok = self.ok and ok
        print("  check %-28s %-4s %s" % (name, "ok" if ok else "FAIL",
                                         detail))


def run_once(workload, seed, seconds, trace, bench):
    """One benchmark run; returns the result object or None on a crash."""
    data_root = os.path.join(BUILD, "data")
    trace_root = os.path.join(BUILD, "trace")
    cmd = [LEDGER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--data-root", data_root]
    if trace:
        cmd += ["--trace-dir", trace_root]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=LEDGER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("ledger timed out")
        return None
    lines = p.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log("ledger exited %d without a result" % p.returncode)
        return None
    print("\n".join(lines[:-1]))
    out = json.loads(lines[-1])
    report = Report()
    report.ok = out["correct"] and p.returncode == 0
    report.metrics = out["metrics"]
    if trace:
        try:
            analyze_trace(os.path.join(trace_root, workload), report)
        except (OSError, ValueError, KeyError) as e:
            report.check("trace_captured", False, str(e))
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = report.metrics.get(m["name"])
        if got is None:
            report.check("metric_" + m["name"], False, "not measured")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": report.ok, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def host_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"hardware_threads": os.cpu_count(), "kernel": platform.release(),
            "cpu_model": cpu}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def rel_iqr(values):
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def run_all(seeds, seconds, out_path, bench):
    runs = []
    started = time.time()
    for seed in seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                log("%s seed %d trace %d" % (workload, seed, trace))
                result = run_once(workload, seed, seconds, trace, bench)
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "result": result})
    spread = {}
    for workload in WORKLOADS:
        values = {}
        for r in runs:
            if r["workload"] == workload and r["result"]:
                for name, m in r["result"]["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        spread[workload] = {n: round(rel_iqr(v), 5)
                            for n, v in sorted(values.items())}
    header = dict(host_info(), seconds=seconds, seeds=seeds,
                  wall_s=round(time.time() - started, 1), rel_iqr=spread)
    # One run per line keeps a result set readable and diffable.
    head = json.dumps(header, indent=1, sort_keys=True)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(head[:-2] + ',\n "runs": [\n  ')
        f.write(",\n  ".join(json.dumps(r, sort_keys=True) for r in runs))
        f.write("\n ]\n}\n")
    failed = [r for r in runs if not r["result"] or
              not r["result"]["correct"]]
    log("wrote %s: %d runs, %d incorrect, %.0f s" %
        (out_path, len(runs), len(failed), time.time() - started))
    return 0 if not failed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, both trace settings")
    parser.add_argument("--seeds", default="1", help="e.g. 1-5 (with --all)")
    parser.add_argument("--out", default=os.path.join(BUILD, "results.json"))
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")

    try:
        bench = load_benchmark()
        build()
    except (OSError, ValueError, RuntimeError) as e:
        log(str(e))
        return 1
    seconds = args.seconds or bench["run_seconds"]
    if args.all:
        return run_all(parse_seeds(args.seeds), seconds, args.out, bench)
    result = run_once(args.workload, args.seed, seconds, args.trace, bench)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
