#!/usr/bin/env python3
"""The benchmark's own steadiness tests.

    python3 tppbench/steady.py exact
        Exact counts and fingerprints must repeat bit-for-bit: for each of
        two seeds, two runs of every workload (two reps each) must print
        the same fingerprint, alloc_words_per_op, promoted_words_per_op
        (except on spawned domains, see metrics.json) and completed_frac.
        Appends the outcome to tppbench/steadiness.json and exits 1 on any
        difference or failed run.

    python3 tppbench/steady.py spread [--runs 10] [--seconds S] [--workloads a,b]
        Runs each workload --runs times, each with another seed, and
        records for every end-to-end metric its median, quartiles and
        spread (IQR / median, quartiles as statistics.quantiles(n=4) gives
        them) against the bound BENCHMARK.json sets, and how much worse its
        median is than the last recorded set's, appending the set to
        tppbench/steadiness.json. Exits 1 if a spread or a median's
        worsening exceeds the metric's bound.

Both build the benchmark through run.py first.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "tppbench", "bench.exe")
RECORD = os.path.join(HERE, "steadiness.json")
EXACT = ["alloc_words_per_op", "promoted_words_per_op", "completed_frac"]
# Workloads whose simulation runs on a spawned domain: their promotion
# count depends on when collections interrupt each domain (metrics.json).
APPROX_PROMOTED = ["transport_mix"]


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def load():
    if not os.path.exists(RECORD):
        return []
    with open(RECORD) as f:
        return json.load(f)


def save(history):
    with open(RECORD, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")


def build():
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--build-only"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.exit("build failed:\n" + done.stderr)


def run(workload, seed, extra):
    out = subprocess.run([EXE, "--workload", workload, "--seed", str(seed),
                          "--trace-out", os.path.join(HERE, "out", "steady.json")]
                         + extra, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d failed:\n%s%s" % (workload, seed, out.stdout, out.stderr))
    result = json.loads(lines[-1])
    fingerprint = next(l.split()[1] for l in lines if l.startswith(workload + "/fingerprint "))
    return result, fingerprint


def exact():
    names = [w["name"] for w in contract()["workloads"]]
    extra = ["--reps", "2", "--trace", "0"]
    started = now()
    bad, rows = 0, []
    for name in names:
        for seed in (1, 2):
            runs = [run(name, seed, extra) for _ in range(2)]
            keys = [k for k in EXACT
                    if not (name in APPROX_PROMOTED and k == "promoted_words_per_op")]
            views = [(fp, {k: r["metrics"][k]["value"] for k in keys}) for r, fp in runs]
            same = views[0] == views[1]
            bad += not same
            rows.append({"workload": name, "seed": seed, "same": same,
                         "fingerprints": [fp for fp, _ in views],
                         "values": [v for _, v in views]})
            print("%-15s seed %d  %s  fingerprint %s  %s" % (
                name, seed, "same" if same else "DIFFERENT", views[0][0],
                " ".join("%s=%r" % kv for kv in sorted(views[0][1].items()))))
            if not same:
                print("    second run: fingerprint %s %r" % views[1])
    print("exact: %s" % ("ok" if bad == 0 else "%d differences" % bad))
    history = load()
    history.append({"kind": "exact", "started": started, "reps": 2,
                    "nproc": os.cpu_count(), "ok": bad == 0, "runs": rows})
    save(history)
    return 1 if bad else 0


def spread(args):
    spec = contract()
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    started = now()
    history = load()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rows, ok = {}, True
    for name in names:
        previous = next((h["workloads"][name] for h in reversed(history)
                         if name in h.get("workloads", {})), None)
        values = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            result, _ = run(name, seed, ["--seconds", str(seconds), "--trace", "0"])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        rows[name] = {}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            s = (q3 - q1) / med if med else 0.0
            within = s <= bounds[m]
            row = {"median": med, "q1": q1, "q3": q3, "spread": s,
                   "bound": bounds[m], "within_bound": within, "values": v}
            # How much worse this set's median is than the previous set's.
            if previous and previous[m]["median"]:
                change = med / previous[m]["median"] - 1.0
                row["worse_than_previous"] = change if better[m] == "lower" else -change
                within &= row["worse_than_previous"] <= bounds[m]
            ok &= within
            rows[name][m] = row
            print("%-15s %-22s median %-12.6g spread %.3f  bound %.2f  worse %s%s" % (
                name, m, med, s, bounds[m],
                "%+.3f" % row["worse_than_previous"] if "worse_than_previous" in row else "-",
                "" if within else "  EXCEEDED"))
    history.append({"kind": "spread", "started": started, "runs": args.runs,
                    "seconds": seconds, "seeds": "1..%d" % args.runs,
                    "nproc": os.cpu_count(), "workloads": rows})
    save(history)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("exact")
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seconds", type=int, default=0)
    s.add_argument("--workloads", default="")
    args = p.parse_args()
    build()
    return exact() if args.cmd == "exact" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
