#!/usr/bin/env python3
"""Run one workload of the benchmark with several seeds and print, for each
metric of the result line, its median and its spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median. Run from the root of the repository:

    python3 benchmark/spread.py --workload read_hot --seeds 1-10 --seconds 10 [--trace 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--extra", default="", help="more arguments for the benchmark")
    ap.add_argument("--all", action="store_true",
                    help="also summarize every printed metric line, not only the result line")
    args = ap.parse_args()

    values, shares = {}, []
    for seed in seeds(args.seeds):
        cmd = ["bash", "benchmark/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + args.extra.split()
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: checks failed\n{p.stdout}")
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.all:
            for line in p.stdout.splitlines():
                f = line.split()
                if len(f) >= 3 and f[0] == "metric" and f[1] not in res["metrics"]:
                    values.setdefault("(printed) " + f[1], []).append(float(f[2]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    width = max(len(n) for n in values)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:{width}s} median {med:12.6g}  spread {spread:7.4f}  min {min(vs):.6g} max {max(vs):.6g}")


if __name__ == "__main__":
    main()
