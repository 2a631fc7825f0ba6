#!/usr/bin/env python3
"""Steadiness check: run one workload under several seeds and report, per
end-to-end metric, the median and the interquartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload paper-mix --seeds 1-10 [--seconds 30]

Run from the root of a checkout.  Exits 1 when a run fails or a spread
(setup_s aside) reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print("seed %d failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(last)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bad = False
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        limit = metric["bound"] / 3
        flag = ""
        if metric["name"] != "setup_s" and spread >= limit:
            flag, bad = "  <-- above bound/3", True
        print("%-22s median %14.6g  spread %7.4f  bound %.3f%s" % (
            metric["name"], med, spread, metric["bound"], flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
