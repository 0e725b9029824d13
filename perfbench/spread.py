#!/usr/bin/env python3
"""Runs the benchmark on several seeds, in sets, and reports how steady
each end-to-end metric is.

    python3 perfbench/spread.py --workload serve [--seeds 1-10]

Run from the repository root. Every run is the BENCHMARK.json command
with its run_seconds and --trace 0, the only setting the bounds apply
to. --seeds lists seeds and ranges, e.g. "1-10" or "5,5,5,5,5" to repeat
one seed, which leaves only the noise of the machine. The list is run
twice, one set after the other.

For each set and metric it prints the median of the per-run values and
their spread: the distance between the first and the third quartile
(Python's statistics.quantiles, n=4) as a share of the median, next to a
third of the metric's bound. Then it prints how much worse the second
set's median is than the first's, as a share of the first, next to the
bound. The benchmark is steady when every spread but setup_s's stays
below a third of its bound and no median is worse by more than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2


def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_set(spec, workload, seeds):
    values = {}
    for seed in seeds:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
        result = json.loads(last)
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"  seed {seed}: {line}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "5,5,5"')
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    medians = []
    for k in range(SETS):
        print(f"{args.workload} set {k + 1}: {len(seeds)} runs of {spec['run_seconds']} s",
              flush=True)
        values = run_set(spec, args.workload, seeds)
        meds = {}
        for name, xs in values.items():
            med = meds[name] = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metrics[name]["bound"]
            verdict = "ok" if spread < bound / 3 else "OVER a third of the bound"
            if name == "setup_s":
                verdict += " (not gated)"
            print(f"    {name:18s} median {med:<14.6g} spread {spread:7.4f}  "
                  f"bound/3 {bound / 3:.4f}  {verdict}", flush=True)
        medians.append(meds)
    print(f"{args.workload} set 2 against set 1 (worse by, as a share of set 1):")
    for name, med in medians[1].items():
        first, m = medians[0][name], metrics[name]
        worse = (med - first if m["better"] == "lower" else first - med) / first
        verdict = "ok" if worse <= m["bound"] else "OVER the bound"
        print(f"    {name:18s} {first:<14.6g} -> {med:<14.6g} worse by {worse:+.4f}  "
              f"bound {m['bound']}  {verdict}")


if __name__ == "__main__":
    main()
