#!/usr/bin/env python3
"""Repeats the benchmark and summarises or compares the results.

Run from the repository root:

    python3 benchmark/ledger.py run [--runs N] [--sets K] [--first-seed S]
                                    [--workload W ...] [--no-trace] --out FILE
    python3 benchmark/ledger.py compare BASE.json NEW.json

`run` executes the command in BENCHMARK.json once per seed
(first-seed .. first-seed + N - 1) for every workload, K times over, then
one traced run per workload. For each set it records every metric's
values, median, quartiles (statistics.quantiles, n=4) and spread
((q3 - q1) / median), and checks them against BENCHMARK.json: each spread
within its bound (setup_s excepted) and, between sets, each median within
its bound of the first set's. It exits 1 when a check fails or a run
reports failed operations.

`compare` reads two `run` outputs and reports, per workload and metric,
how far NEW's median moved from BASE's, flagging a move in the worse
direction beyond the metric's bound. It exits 1 on any such regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"


def load_spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_set(spec, workloads, seeds):
    out = {}
    for w in workloads:
        per_metric, attempted, failed = {}, 0, 0
        for seed in seeds:
            r = run_once(spec, w, seed, trace=False)
            attempted += r["attempted"]
            failed += r["failed"] + (r["exit"] != 0)
            for name, m in r["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
            print(f"  {w} seed {seed}: failed {r['failed']}", file=sys.stderr, flush=True)
        out[w] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"unit": v["unit"], **summarise(v["values"])}
                        for n, v in per_metric.items()},
        }
    return out


def worse_by(metric, base, new):
    """Relative move of `new` from `base` in the metric's worse direction."""
    if base == 0:
        return 0.0
    move = (new - base) / base
    return move if metric["better"] == "lower" else -move


def check(spec, sets):
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<16} {'metric':<13} {'bound':>6} " +
          " ".join(f"{'spread' + str(i + 1):>8}" for i in range(len(sets))) +
          f" {'median move':>12}")
    for w, first in sets[0].items():
        ok &= first["failed"] == 0
        for name, stats in first["metrics"].items():
            metric = bounds[name]
            spreads = [s[w]["metrics"][name]["spread"] for s in sets]
            moves = [worse_by(metric, stats["median"], s[w]["metrics"][name]["median"])
                     for s in sets[1:]]
            within = all(move <= metric["bound"] for move in moves)
            # Setup time varies with the seed's topology; only its medians
            # are held to the bound.
            if name != "setup_s":
                within &= all(sp <= metric["bound"] for sp in spreads)
            tight = all(sp < metric["bound"] / 3 for sp in spreads)
            ok &= within
            flag = "" if within and tight else (" loose" if within else " FAIL")
            print(f"{w:<16} {name:<13} {metric['bound']:>6.2f} " +
                  " ".join(f"{sp:>8.4f}" for sp in spreads) +
                  f" {max(moves, default=0.0):>12.4f}{flag}")
    return ok


def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cmd_run(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    sets = []
    for k in range(args.sets):
        print(f"set {k + 1}/{args.sets}", file=sys.stderr, flush=True)
        sets.append(run_set(spec, workloads, seeds))
    layers = {}
    if not args.no_trace:
        for w in workloads:
            r = run_once(spec, w, args.first_seed, trace=True)
            layers[w] = {"failed": r["failed"],
                         "metrics": {n: m["value"] for n, m in r["metrics"].items()}}
    status = git("status", "--porcelain")
    doc = {
        "schema_version": 1,
        "command": spec["command"],
        "git_rev": git("rev-parse", "HEAD"),
        # True when the measured tree had changes on top of git_rev.
        "git_dirty": None if status is None else status != "",
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "runs_per_set": args.runs,
        "seeds": seeds,
        "sets": sets,
        "layers": layers,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    ok = check(spec, sets) and all(l["failed"] == 0 for l in layers.values())
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.base) as f:
        base = json.load(f)["sets"][0]
    with open(args.new) as f:
        new = json.load(f)["sets"][0]
    regressed = False
    print(f"{'workload':<16} {'metric':<13} {'base':>14} {'new':>14} {'worse by':>9} bound")
    for w, b in base.items():
        for name, bm in b["metrics"].items():
            if w not in new or name not in new[w]["metrics"]:
                continue
            nm = new[w]["metrics"][name]
            move = worse_by(bounds[name], bm["median"], nm["median"])
            bad = move > bounds[name]["bound"]
            regressed |= bad
            print(f"{w:<16} {name:<13} {bm['median']:>14.6g} {nm['median']:>14.6g} "
                  f"{move:>9.4f} {bounds[name]['bound']:.2f}{'  REGRESSION' if bad else ''}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--sets", type=int, default=2)
    r.add_argument("--first-seed", type=int, default=42)
    r.add_argument("--workload", action="append")
    r.add_argument("--no-trace", action="store_true")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args()
    sys.exit(cmd_run(args) if args.cmd == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
