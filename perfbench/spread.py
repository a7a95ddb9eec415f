#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload fig7-ci --seeds 1-10 [--trace 0] [--json out.json]

For every metric a run prints, it gives the median over the runs, the
distance between the first and third quartiles (statistics.quantiles(values,
n=4)) as a share of the median, and the median sample count behind each
run's value. Gated metrics show the bound BENCHMARK.json gives them. A run
that exits non-zero or reports "correct": false stops the script. --json
writes the summary and every run: its result line and the metrics it printed.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time

# A metric line of a run's tables: name, value or "-", unit, "(n=...)".
LINE = re.compile(r"^  ([a-z0-9_.]+)\s+(\S+)\s+(\S+)\s*(?:\(n=(\d+)\))?")


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def printed(stdout):
    """Every metric with a value in a run's tables: name -> (value, unit, n)."""
    out = {}
    for line in stdout.splitlines():
        m = LINE.match(line)
        if m and m.group(2) != "-":
            try:
                out[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4) or 0))
            except ValueError:
                pass
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--json", help="write the summary and every run here")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        took = time.time() - start
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
        result = json.loads(last)
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{proc.stdout[-2000:]}")
        runs.append({"seed": seed, "wall_s": round(took, 1), "result": result,
                     "printed": printed(proc.stdout)})
        print(f"seed {seed}: {took:.1f} s", file=sys.stderr)

    summary = {}
    for name in runs[0]["printed"]:
        got = [r["printed"][name] for r in runs if name in r["printed"]]
        if len(got) < len(runs):
            continue  # too few samples for a percentile in some run
        vals = [g[0] for g in got]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        summary[name] = {
            "unit": got[0][1], "median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else None,
            "samples_per_run": statistics.median(g[2] for g in got),
            "gated": name in bounds and args.trace == "0",
        }

    print(f"{args.workload}: {len(runs)} runs, wall {statistics.median(r['wall_s'] for r in runs):.1f} s median")
    for name, s in summary.items():
        spread = "   -" if s["spread"] is None else f"{s['spread']:7.3f}"
        note = ""
        if s["gated"]:
            note = f"  bound {bounds[name]}"
            if name != "setup_s" and s["spread"] is not None and s["spread"] > bounds[name] / 3:
                note += "  <-- above bound/3"
        print(f"  {name:34s} median {s['median']:14.6g} {s['unit']:8s} spread {spread}  n/run {s['samples_per_run']:g}{note}")

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": int(args.trace), "seconds": seconds,
                       "seeds": [r["seed"] for r in runs], "wall_s": [r["wall_s"] for r in runs],
                       "metrics": summary, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
