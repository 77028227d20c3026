#!/usr/bin/env python3
"""The repository benchmark: host cost of four simulator workloads and
per-layer costs from a traced replay.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload sweep-fast --seed 1 \
        --seconds 30 --trace 0

The first run builds sgcn_perfbench (perfbench/CMakeLists.txt) and
the simulator library from source into .bench_build/. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The lines above it
show the simulated-result digest, the paper-anchor table and, when
traced, the per-layer and self-time tables.

Other modes:

    --ledger FILE           also append the run's record to FILE (JSON lines)
    --compare PARENT CHANGE compare two ledgers, workload by metric
    --self-test             run the statistics helpers' unit tests

perfbench/layers.json maps each per-layer metric to the end-to-end
metric and workload it should move, and lists the counters still
pending in-program tracing.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sweep-fast", "timing-small", "serve-reddit", "shard-30k")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEADLINE_S = 170.0

# Fig. 11 anchors: (label, baseline, dataset or None for the geomean
# over the workload's datasets, paper speedup of SGCN over baseline).
ANCHORS = (
    ("SGCN over GCNAX, geomean", "GCNAX", None, 1.66),
    ("SGCN over HyGCN, geomean", "HyGCN", None, 2.71),
    ("SGCN over AWB-GCN, geomean", "AWB-GCN", None, 1.73),
    ("SGCN over EnGN, geomean", "EnGN", None, 1.85),
    ("SGCN over GCNAX, PubMed", "GCNAX", "PM", 1.91),
    ("SGCN over GCNAX, NELL", "GCNAX", "NL", 1.99),
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))


def build():
    """Configure once, then (re)build sgcn_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "sgcn_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True)
        except OSError as err:
            fail("cannot run cmake: %s" % err)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "sgcn_perfbench")


def run_program(exe, args, started):
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--csv", os.path.join(out_dir, args.workload + ".csv")]
    budget = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        fail("sgcn_perfbench did not finish within %.0f s" % budget)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail("sgcn_perfbench exited with code %d" % done.returncode)
    try:
        return json.loads(done.stdout)
    except ValueError as err:
        fail("sgcn_perfbench printed no report: %s" % err)


# ---------------------------------------------------------------- metrics

def paper_anchors(report):
    """Rows (label, paper, simulated, |ln gap|) for every anchor the
    workload's personalities and datasets can price."""
    cycles = {}
    for dataset, accel, count in report["cycles"]:
        cycles.setdefault(dataset, {})[accel] = count
    rows = []
    for label, base, only, paper in ANCHORS:
        ratios = [per[base] / per["SGCN"] for ds, per in cycles.items()
                  if base in per and "SGCN" in per
                  and (only is None or ds == only)]
        if ratios:
            simulated = math.exp(sum(map(math.log, ratios)) / len(ratios))
            rows.append((label, paper, simulated,
                         abs(math.log(simulated / paper))))
    return rows, cycles


def collapse_line(cycles):
    """How close HyGCN and EnGN land, in speedup over GCNAX; the paper
    puts EnGN 1.46x ahead of HyGCN (2.71 / 1.85)."""
    gaps = [abs(per["GCNAX"] / per["HyGCN"] - per["GCNAX"] / per["EnGN"])
            for per in cycles.values()
            if {"GCNAX", "HyGCN", "EnGN"} <= per.keys()]
    if not gaps:
        return None
    state = "collapse" if max(gaps) < 0.05 else "separate"
    return ("HyGCN/EnGN %s: speedups over GCNAX within %.3fx of each "
            "other on every dataset (paper: EnGN 1.46x ahead of HyGCN)"
            % (state, max(gaps)))


def pass_cost(report, traced):
    """A pass's host time in reference-kernel units: the sum over its
    timed units (each run or served trace, then the export) of the
    median across passes of the unit's seconds over the seconds of the
    fixed reference kernel run beside it on the same core.

    On a shared host other tenants slow a core by up to 50% for tens
    of seconds, so raw seconds of the same code spread 0.20 (IQR over
    median, six serve-reddit runs) even as the fastest of 20 repeats;
    the reference kernel slows with the simulator, and the ratio spread
    0.034 over the same runs."""
    passes = [p for p in report["passes"] if p["traced"] == traced]
    ratios = [[u / r for u, r in zip(p["units_s"], p["units_ref_s"])]
              for p in passes]
    return sum(stats.quartiles(unit)[1] for unit in zip(*ratios))


def pass_seconds(report, traced):
    """Raw host seconds of a pass: the sum of each unit's median."""
    units = [p["units_s"] for p in report["passes"] if p["traced"] == traced]
    return sum(stats.quartiles(unit)[1] for unit in zip(*units))


def end_to_end(report):
    rows, _ = paper_anchors(report)
    return {
        "wall_ref": pass_cost(report, False),
        "setup_s": stats.quartiles(report["setup_s"])[1],
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "paper_gap": sum(r[3] for r in rows) / len(rows) if rows else
        float("nan"),
    }


def pass_metrics(names, spans, selfs, pass_index, counters):
    """Per-layer metrics of one traced pass."""
    total = {}
    count = {}
    self_ns = {}
    batch_ms = []
    for (name, _, start, end, p), own in zip(spans, selfs):
        if p != pass_index:
            continue
        key = names[name]
        total[key] = total.get(key, 0) + (end - start)
        count[key] = count.get(key, 0) + 1
        self_ns[key] = self_ns.get(key, 0) + own
        if key == "serve.batch":
            batch_ms.append((end - start) / 1e6)

    def ms(key):
        return total.get(key, 0) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    engines = [k for k in total if k.startswith("engine.")]
    fast_ns = sum(total[k] for k in engines if k.endswith(".fast"))
    timing_ns = sum(total[k] for k in engines if k.endswith(".timing"))
    c = counters
    accesses = c.get("fast.cache_accesses", 0) + c.get(
        "timing.cache_accesses", 0)
    hits = c.get("fast.cache_hits", 0) + c.get("timing.cache_hits", 0)
    lookups = c.get("artifacts.hits", 0) + c.get("artifacts.misses", 0)
    m = {
        "graph.islandize_ms": ms("graph.islandize"),
        "graph.partition_ms": ms("graph.partition"),
        "graph.sample_ms": ms("graph.sample"),
        "artifacts.hits": c.get("artifacts.hits", 0),
        "artifacts.misses": c.get("artifacts.misses", 0),
        "artifacts.hit_ratio": ratio(c.get("artifacts.hits", 0), lookups),
        "artifacts.mb": c.get("artifacts.bytes", 0) / 1e6,
        "workload.prep_ms": ms("workload.prep"),
        "workload.calls": count.get("workload.prep", 0),
        "engine.calls": sum(count[k] for k in engines),
        "mem.ns_per_cache_access": ratio(
            fast_ns, c.get("fast.cache_accesses", 0)),
        "mem.ns_per_dram_line": ratio(
            timing_ns, c.get("timing.dram_lines", 0)),
        "mem.cache_accesses": accesses,
        "mem.cache_hit_ratio": ratio(hits, accesses),
        "mem.dram_lines": c.get("fast.dram_lines", 0) + c.get(
            "timing.dram_lines", 0),
        "runner.other_ms": self_ns.get("runner.run_network", 0) / 1e6,
        "interconnect.exchange_ms": ms("interconnect.exchange"),
        "shard.exchange_mb": c.get("shard.exchange_bytes", 0) / 1e6,
        "serve.batches": len(batch_ms),
        "serve.batch_ms_p50": (stats.nearest_rank(batch_ms, 50.0)
                               if batch_ms else 0.0),
        "serve.batch_ms_tail": (stats.tail(batch_ms)[1]
                                if batch_ms else 0.0),
        "report.export_ms": ms("report.export"),
    }
    for flow in ("agg_first", "comb_first", "column_product"):
        for mode in ("fast", "timing"):
            m["engine.%s.%s_ms" % (flow, mode)] = ms(
                "engine.%s.%s" % (flow, mode))
    return m, total, count, self_ns


def per_layer(report):
    names = report["span_names"]
    spans = report["spans"]
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    per_pass = []
    for index, p in enumerate(report["passes"]):
        if p["traced"]:
            m, total, count, self_ns = pass_metrics(
                names, spans, selfs, index, p["counters"])
            per_pass.append(m)
            last_table = (total, count, self_ns, p["wall_s"])
    metrics = {key: stats.quartiles([m[key] for m in per_pass])[1]
               for key in per_pass[0]}
    setup_build = sum(s[3] - s[2] for s in spans
                      if s[4] == -1 and names[s[0]] == "graph.build")
    metrics["graph.build_ms"] = setup_build / 1e6
    metrics["trace.overhead_ratio"] = (pass_cost(report, True) /
                                       pass_cost(report, False))
    return metrics, last_table


# ---------------------------------------------------------------- printing

def print_anchors(report):
    rows, cycles = paper_anchors(report)
    print("paper anchors (Fig. 11): paper | simulated | |ln gap|")
    for label, paper, simulated, gap in rows:
        print("  %-28s %5.2fx | %6.3fx | %.4f" % (label, paper, simulated,
                                                  gap))
    line = collapse_line(cycles)
    if line:
        print("  " + line)


def print_self_times(table):
    total, count, self_ns, wall_s = table
    print("traced pass, by span (last traced pass, %.3f s):" % wall_s)
    print("  %-32s %7s %11s %11s %7s" % ("span", "count", "total ms",
                                        "self ms", "self %"))
    for key in sorted(self_ns, key=self_ns.get, reverse=True):
        print("  %-32s %7d %11.3f %11.3f %6.2f%%" % (
            key, count[key], total[key] / 1e6, self_ns[key] / 1e6,
            100.0 * self_ns[key] / 1e9 / wall_s))


def run(args):
    started = time.monotonic()
    bench = load_benchmark()
    exe = build()
    report = run_program(exe, args, started)

    print("workload %s seed %d: sim_digest %s" % (
        args.workload, args.seed, report["sim_digest"]))
    for traced in (False, True):
        walls = [p["wall_s"] for p in report["passes"]
                 if p["traced"] == traced]
        if walls:
            print("%s passes (s): %s" % (
                "traced" if traced else "untraced",
                " ".join("%.3f" % w for w in walls)))
    refs = [r for p in report["passes"] for r in p["units_ref_s"]]
    print("untraced pass: %.4f s (sum of unit medians); reference "
          "kernel %.6f s (median)" % (pass_seconds(report, False),
                                      stats.quartiles(refs)[1]))
    print("set-up (s): " + " ".join("%.4f" % s for s in report["setup_s"]))
    print_anchors(report)
    for failure in report["failures"]:
        print("  check failed: " + failure)

    if args.trace:
        values, table = per_layer(report)
        specs = bench["per_layer"]
        print_self_times(table)
    else:
        values = end_to_end(report)
        specs = bench["end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        fail("metrics not computed: " + ", ".join(missing))
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    if args.trace:
        for name, metric in metrics.items():
            print("  %-32s %14.6g %s" % (name, metric["value"],
                                        metric["unit"]))

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = (report["failed"] == 0 and report["attempted"] > 0
               and report["exported_stats"] > 0 and finite)
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    if args.ledger:
        with open(args.ledger, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "sim_digest": report["sim_digest"],
                "result": result}) + "\n")
    print(json.dumps(result))


# ---------------------------------------------------------------- compare

def load_ledger(path):
    records = []
    try:
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    records.append(json.loads(line))
    except (OSError, ValueError) as err:
        fail("cannot read ledger %s: %s" % (path, err))
    return records


def series(records, workload, trace, metric):
    """(seed, value) of every run of `workload` reporting `metric`."""
    return [(r["seed"], r["result"]["metrics"][metric]["value"])
            for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def paired(parent, change):
    """Values paired by seed when both sides ran the same seeds, else
    in run order."""
    p_by, c_by = dict(parent), dict(change)
    common = sorted(p_by.keys() & c_by.keys())
    if len(common) == min(len(p_by), len(c_by)) and common:
        return [p_by[s] for s in common], [c_by[s] for s in common]
    n = min(len(parent), len(change))
    return [v for _, v in parent[:n]], [v for _, v in change[:n]]


def compare(parent_path, change_path):
    bench = load_benchmark()
    parent, change = load_ledger(parent_path), load_ledger(change_path)
    workloads = [w["name"] for w in bench["workloads"]]
    print("%-13s %-28s %-26s %-26s %-9s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won/lost", "verdict"))
    for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for workload in workloads:
            for spec in specs:
                p = series(parent, workload, trace, spec["name"])
                c = series(change, workload, trace, spec["name"])
                if not p or not c:
                    continue
                pv, cv = paired(p, c)
                wins, losses, _ = stats.pair_wins(pv, cv, spec["better"])
                pq = stats.quartiles([v for _, v in p])
                cq = stats.quartiles([v for _, v in c])
                print("%-13s %-28s %-26s %-26s %4d/%-4d %s" % (
                    workload, spec["name"],
                    "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                    "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                    wins, losses,
                    stats.verdict([v for _, v in p], [v for _, v in c],
                                  spec["better"], spec.get("bound"))))
    digests = {}
    for side, records in (("parent", parent), ("change", change)):
        for r in records:
            digests.setdefault((r["workload"], r["seed"]), {}).setdefault(
                side, set()).add(r["sim_digest"])
    shared = [key for key, d in digests.items() if len(d) == 2]
    moved = sorted("%s seed %s" % key for key, d in digests.items()
                   if len(set().union(*d.values())) > 1)
    print("sim_digest: %d workload/seed pairs run on both sides; %s" % (
        len(shared), "differs on " + ", ".join(moved) if moved else
        "every run of a workload and seed has the same digest"))


# ---------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="SGCN simulator benchmark", allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--ledger")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    run_flags = (args.workload, args.seed, args.seconds, args.trace)
    if args.compare or args.self_test:
        if any(v is not None for v in run_flags) or (
                args.compare and args.self_test):
            parser.error("--compare and --self-test take no run flags")
    elif any(v is None for v in run_flags):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    elif not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2^32)")
    elif not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in [1, 120]")
    return args


def main(argv):
    args = parse_args(argv)
    if args.self_test:
        suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        sys.exit(0 if ok else 1)
    if args.compare:
        compare(*args.compare)
        return
    run(args)


if __name__ == "__main__":
    main(sys.argv[1:])
