#!/usr/bin/env python3
"""Compares two sets of tfx_bench results against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py BEFORE AFTER [--claim WORKLOAD:METRIC ...]
    python3 bench/e2e/compare.py --agree A B

BEFORE, AFTER, A and B are result files written by run.py (or directories
of them). For each workload and end-to-end metric it prints both sides'
median and quartiles and a verdict:

  ok          the after median is not worse than the before median by more
              than the metric's bound;
  REGRESSED   it is;
  unresolved  a side's spread (quartile distance / median) exceeds the
              bound, unless every after run beats every before run;
  gain / claim not met
              for a --claim: the after side must win at least 9 of every 10
              seed-paired runs (ties count for neither) and the medians must
              differ by more than the before side's quartile distance.

Every line also counts the seeds on which the after run read better. A
shared host's speed can drift by tens of percent over minutes (README.md
"Run-to-run spread"), and the bounds absorb that; runs paired by seed and
made alternately cancel the drift, so a change that loses nearly every
pair is suspect even when its verdict is ok.
Any failed op on the after side is reported and fails the comparison.
--agree checks that two sets from the same commit agree: medians within
the bound in either direction and each spread within the bound. Per-layer
metrics of traced results are listed for reference. Exits 0 when every
verdict is ok, gain or agree.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def load_results(path):
    """{(workload, trace): {seed: result}} from a file or a directory."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    out = {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("bench") != "tfx_bench":
            continue
        cfg = doc["config"]
        out.setdefault((cfg["workload"], cfg["trace"]), {})[cfg["seed"]] = doc
    return out


def summary(values):
    """(median, q1, q3, spread) with Python's quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def values(runs, metric, key="metrics"):
    return {seed: doc["rows"][0][key][metric]["value"]
            for seed, doc in runs.items()
            if doc["correct"] and metric in doc["rows"][0][key]}


def better(a, b, lower):
    return a < b if lower else a > b


def judge(metric, before, after, agree, claimed):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    b_med, b_q1, b_q3, b_spread = summary(list(before.values()))
    a_med, a_q1, a_q3, a_spread = summary(list(after.values()))
    change = (a_med - b_med) / b_med if b_med else 0.0
    worse = change if lower else -change
    pairs = sorted(set(before) & set(after))
    wins = sum(better(after[s], before[s], lower) for s in pairs)
    if agree:
        # Set-up is timed a few times per run, so only its median counts.
        steady = metric["name"] == "setup_s" or (b_spread <= bound
                                                 and a_spread <= bound)
        ok = abs(change) <= bound and steady
        verdict = "agree" if ok else "DISAGREE"
    elif claimed:
        ok = (len(pairs) > 0 and wins >= 0.9 * len(pairs)
              and abs(a_med - b_med) > b_q3 - b_q1)
        verdict = "gain" if ok else "claim not met"
    elif b_spread > bound or a_spread > bound:
        ok = all(better(a, b, lower) for a in after.values()
                 for b in before.values())
        verdict = "better in every run" if ok else "unresolved"
    else:
        ok = worse <= bound
        verdict = "ok" if ok else "REGRESSED"
    line = (f"  {metric['name']:<16} {b_med:12.5g} [{b_q1:.4g}, {b_q3:.4g}]"
            f" -> {a_med:12.5g} [{a_q1:.4g}, {a_q3:.4g}] {metric['unit']:<6}"
            f" {change:+7.2%}  spread {b_spread:6.2%}/{a_spread:6.2%}"
            f"  after better in {wins}/{len(pairs)} pairs"
            f"  bound {bound:.0%}  {verdict}")
    return ok, line


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--benchmark", default=os.path.join(ROOT,
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    before = load_results(args.before)
    after = load_results(args.after)
    claims = {tuple(c.split(":", 1)) for c in args.claim}

    all_ok = True
    for w in bench["workloads"]:
        name = w["name"]
        b_runs, a_runs = before.get((name, 0), {}), after.get((name, 0), {})
        print(f"{name}: {len(b_runs)} before, {len(a_runs)} after")
        if not b_runs or not a_runs:
            print("  missing results")
            all_ok = False
            continue
        for side, runs in (("before", b_runs), ("after", a_runs)):
            failed = sum(doc["failed"] for doc in runs.values())
            attempted = sum(doc["attempted"] for doc in runs.values())
            wrong = sum(not doc["correct"] for doc in runs.values())
            if failed or wrong:
                print(f"  {side}: {failed}/{attempted} ops failed, "
                      f"{wrong} runs incorrect")
                if side == "after" or args.agree:
                    all_ok = False
        for metric in bench["end_to_end"]:
            b = values(b_runs, metric["name"])
            a = values(a_runs, metric["name"])
            if not b or not a:
                print(f"  {metric['name']:<16} missing")
                all_ok = False
                continue
            ok, line = judge(metric, b, a, args.agree,
                             (name, metric["name"]) in claims)
            all_ok = all_ok and ok
            print(line)
        b_traced, a_traced = before.get((name, 1), {}), after.get((name, 1), {})
        if b_traced and a_traced:
            print("  per layer (traced runs, medians):")
            for metric in bench["per_layer"]:
                b = values(b_traced, metric["name"], "layers")
                a = values(a_traced, metric["name"], "layers")
                if b and a:
                    print(f"    {metric['name']:<30} "
                          f"{statistics.median(b.values()):12.5g} -> "
                          f"{statistics.median(a.values()):12.5g} "
                          f"{metric['unit']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
