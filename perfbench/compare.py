#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

Collect runs (one JSON line per run) from one or two checkouts. With two,
the order alternates seed by seed (A then B, then B then A, ...):

    python3 perfbench/compare.py collect --root . --workload spill-fuse \\
        --seeds 1-10 --out base.jsonl
    python3 perfbench/compare.py collect --root ../parent --root . \\
        --workload spill-fuse --seeds 1-10 --out base.jsonl --out change.jsonl

Report one set (median, quartiles, and the spread (q3 - q1) / median
against each metric's bound from BENCHMARK.json) or compare two (pairs
joined by workload and seed):

    python3 perfbench/compare.py report base.jsonl
    python3 perfbench/compare.py report base.jsonl change.jsonl

Verdicts per metric and workload, for a change against its base:
  improved     the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the base's
               quartile spread
  regressed    the change's median is worse than the base's by more than
               the metric's bound
  unresolved   the base's own spread exceeds the bound, and not every run
               of the change beats every run of the base
  unchanged    none of the above
The report exits 1 when any metric regressed, a run was incorrect, or (for
one set) a spread exceeds its metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            metrics[m["name"]] = dict(m, kind=kind)
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "root": os.path.abspath(root), "exit": proc.returncode,
            "result": result}


def collect(args):
    if len(args.root) != len(args.out):
        sys.exit("collect: give one --out per --root")
    spec, _ = load_spec()
    outs = [open(path, "a") for path in args.out]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(range(len(args.root)))
        if i % 2:
            order.reverse()
        for side in order:
            rec = run_once(args.root[side], spec, args.workload, seed, args.trace)
            outs[side].write(json.dumps(rec) + "\n")
            outs[side].flush()
            status = "ok" if rec["result"] else "FAILED (exit %d)" % rec["exit"]
            print("%s seed %d [%s]: %s" % (args.workload, seed,
                                             args.root[side], status),
                  file=sys.stderr)
    for f in outs:
        f.close()


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def by_metric(runs):
    """{(workload, metric): {seed: value}} plus the count of bad runs."""
    table, bad = {}, 0
    for run in runs:
        res = run["result"]
        if not res or not res["correct"] or res["failed"]:
            bad += 1
            continue
        for name, m in res["metrics"].items():
            table.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
    return table, bad


def verdict(meta, base, change):
    """Verdict of `change` against `base` (lists of values in pair order)."""
    bound = meta.get("bound")
    lower = meta["better"] == "lower"
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, _, b_q3 = quartiles(base)
    worse = (c_med - b_med) if lower else (b_med - c_med)
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    if wins >= 0.9 * len(base) and abs(c_med - b_med) > (b_q3 - b_q1):
        return "improved", wins
    if bound is not None and worse > bound * abs(b_med):
        return "regressed", wins
    if bound is not None and spread(base) > bound:
        all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
        if not all_better:
            return "unresolved", wins
    return "unchanged", wins


def report(args):
    _, metrics = load_spec()
    sets = [by_metric(read_runs(p)) for p in args.runs]
    failed = False
    for path, (_, bad) in zip(args.runs, sets):
        if bad:
            print("%s: %d incorrect or failed runs" % (path, bad))
            failed = True
    base = sets[0][0]
    for key in sorted(base):
        workload, name = key
        meta = metrics.get(name, {"better": "lower"})
        seeds = sorted(base[key])
        values = [base[key][s] for s in seeds]
        q1, med, q3 = quartiles(values)
        line = "%-13s %-26s n=%-2d med=%-12.6g q1=%-12.6g q3=%-12.6g spread=%6.2f%%" % (
            workload, name, len(values), med, q1, q3, 100 * spread(values))
        bound = meta.get("bound")
        if len(sets) == 1 and bound is not None:
            # A set is usable when every spread is within its metric's
            # bound; steady when within a third.
            s = spread(values)
            status = ("steady" if s <= bound / 3 else
                      "ok" if s <= bound else "TOO NOISY")
            if s > bound:
                failed = True
            line += " bound=%g%% %s" % (100 * bound, status)
        if len(sets) == 2:
            other = sets[1][0].get(key, {})
            common = [s for s in seeds if s in other]
            if not common:
                line += "  (missing in change)"
            else:
                b = [base[key][s] for s in common]
                c = [other[s] for s in common]
                v, wins = verdict(meta, b, c)
                line += "  change med=%-12.6g wins=%d/%d %s" % (
                    statistics.median(c), wins, len(common), v)
                if v == "regressed":
                    failed = True
        print(line)
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds")
    c.add_argument("--root", action="append", required=True,
                   help="checkout to run in (give twice to alternate A/B)")
    c.add_argument("--out", action="append", required=True,
                   help="JSONL file to append to, one per --root")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    c.add_argument("--trace", type=int, default=0)
    r = sub.add_parser("report", help="summarize one set or compare two")
    r.add_argument("runs", nargs="+", help="base.jsonl [change.jsonl]")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if len(args.runs) > 2:
        parser.error("report takes one or two run files")
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
