"""Steadiness self-check: two sets of runs of one commit must agree.

Usage:
    python3 bench/steady.py [--runs 10] [--workloads A B ...]

Each of the two sets runs every workload --runs times, with seeds 1 to
--runs (the sets reuse the same seeds) and the run length from
BENCHMARK.json.  Per
workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median) against the
metric's bound, and whether the second median stays within the bound of
the first.  One traced run per workload and set (first seed) must give
exactly the same counts in both sets, and so must cert_kb for each
seed.  Runs are sequential.  Exit code 0 when every check passes.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS_EXACT = ("_calls", "rings.homs_enumerated", "poly.basis_len_max")
SETS = 2


def run(workload, seed, seconds, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: correct is false", flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(first, second, better):
    """Relative worsening of second against first (positive = worse)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) / abs(first)
    return -delta if better == "higher" else delta


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    seeds = list(range(1, args.runs + 1))
    seconds = bench["run_seconds"]
    ok = True
    for workload in args.workloads:
        sets, traces = [], []
        for s in range(SETS):
            values = []
            for seed in seeds:
                values.append(run(workload, seed, seconds, 0))
                print(f"  {workload} set {s + 1} seed {seed}: "
                      + ", ".join(f"{k}={v:.5g}"
                                  for k, v in values[-1].items()),
                      flush=True)
            sets.append(values)
            traces.append(run(workload, seeds[0], seconds, 1))
        print(f"{workload}:")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"  {name:<22}"
            medians = []
            for values in sets:
                xs = [v[name] for v in values]
                med = statistics.median(xs)
                q1, _, q3 = statistics.quantiles(xs, n=4) \
                    if len(xs) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                flag = "" if spread <= bound / 3 \
                    else (" (over bound/3)" if spread <= bound
                          else " (OVER BOUND)")
                if spread > bound:
                    ok = False
                line += (f" median {med:.5g} [{q1:.5g}, {q3:.5g}] "
                         f"spread {spread:.3f}{flag} |")
            w = worse(medians[0], medians[1], m["better"])
            agree = w <= bound
            ok &= agree
            line += f" 2nd vs 1st {w:+.3f} of bound {bound}: " \
                + ("agree" if agree else "DISAGREE")
            print(line, flush=True)
        kb = [[v["cert_kb"] for v in values] for values in sets]
        if kb[1] != kb[0]:
            ok = False
            print("  cert_kb differs between sets for the same seeds")
        for name, v in traces[0].items():
            if name.endswith(COUNTS_EXACT) and traces[1][name] != v:
                ok = False
                print(f"  count {name} differs: {v} vs {traces[1][name]}")
        layer = traces[0]
        top = sorted((k for k in layer if k.endswith("_ms")),
                     key=lambda k: -layer[k])[:6]
        print("  largest self times (traced, first set): "
              + ", ".join(f"{k} {layer[k]:.1f}" for k in top))
        print(f"  trace.overhead_ratio {layer['trace.overhead_ratio']:.3f}, "
              f"failed_frac {layer['failed_frac']:.4f}", flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
