#!/usr/bin/env bash
# bench.sh — run the headline solver benchmarks and write a machine-readable
# summary JSON. The benchmark set covers the sparse-construction acceptance
# gates (PR 5) on top of the PR 3 simplex-engine gates:
#
#   BenchmarkFig4          end-to-end figure regeneration (cold solver);
#                          postcard-lp-iters and postcard-sparse-hit% track
#                          pricing quality and the hyper-sparse FTRAN/BTRAN
#                          hit rate; postcard-pruned% and postcard-colgen-*
#                          track the sparse time-expanded model construction.
#   BenchmarkFig4WarmStart cold vs warm-started incremental solver on
#                          identical traces; postcard-warm-lp-iters is the
#                          basis-reuse win.
#   BenchmarkFig5          delay-tolerant regime (T = 8): the deepest
#                          time-expanded models, where reachability pruning
#                          and delayed column generation matter most.
#   BenchmarkFig7          delay-tolerant under limited capacity; the
#                          paper's headline Postcard-wins setting.
#   BenchmarkPostcardSolve one offline 40-file instance; ns/op is the
#                          single-solve latency gate.
#   BenchmarkPoissonAdmission
#                          allocate-on-arrival fast tier under Poisson
#                          heavy arrivals (PR 6); p99-admit-ns is the
#                          admission-latency gate (target < 1e6, i.e.
#                          p99 under one millisecond, no LP on the hot
#                          path).
#   BenchmarkFig4DC16/DC64/DC128
#                          the PR 9 scaling study: Dantzig-Wolfe path
#                          pricing vs the warm arc solver on a fixed file
#                          stream over a growing overlay (DC128 runs path
#                          only). postcard-path-lazy-rows and
#                          postcard-path-path-fallbacks gate the lazy
#                          master; the two cost/slot series must agree.
#   BenchmarkRefactorize   one in-place LU refactorization of an optimal
#   BenchmarkWarmResolve   basis, and one warm re-solve from it, on a
#                          110-node min-cost-flow LP (internal/lp). B/op
#                          is the allocation per refactorization (zero: the
#                          LU storage is recycled) and per re-solve (its
#                          Solution output only). They run first.
#
# The JSON header records the host's parallelism (cpus, gomaxprocs), so
# numbers from different machines are read next to the cores they had.
#
# Usage:  scripts/bench.sh [-o output.json]
# Env:    BENCH_OUT         output path (default BENCH_<yyyymmdd>.json;
#                           the -o flag wins over the env var)
#         BENCH_COUNT       benchmark repetitions per entry (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-BENCH_$(date -u +%Y%m%d).json}"
usage() { echo "usage: scripts/bench.sh [-o output.json]" >&2; exit 2; }
while [ "$#" -gt 0 ]; do
  case "$1" in
    -o) [ "$#" -ge 2 ] || usage; out="$2"; shift 2 ;;
    *) usage ;;
  esac
done

count="${BENCH_COUNT:-3}"
cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$cpus}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench '^(BenchmarkRefactorize|BenchmarkWarmResolve)$' \
  -benchmem -count "$count" ./internal/lp | tee -a "$raw"

go test -run '^$' \
  -bench '^(BenchmarkFig4|BenchmarkFig4WarmStart|BenchmarkFig5|BenchmarkFig7|BenchmarkPostcardSolve|BenchmarkPoissonAdmission|BenchmarkFig4DC16|BenchmarkFig4DC64|BenchmarkFig4DC128)$' \
  -benchmem -count "$count" . | tee -a "$raw"

python3 - "$raw" "$out" "$cpus" "$gomaxprocs" <<'PYEOF'
import json, re, sys, datetime

raw_path, out_path = sys.argv[1], sys.argv[2]
cpus, gomaxprocs = int(sys.argv[3]), int(sys.argv[4])
benches = {}
order = []
line_re = re.compile(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$')
for line in open(raw_path):
    line = line.strip()
    m = line_re.match(line)
    if not m:
        continue
    name, iters, rest = m.group(1), int(m.group(2)), m.group(3)
    run = {"iterations": iters, "metrics": {}}
    for val, unit in re.findall(r'([0-9.e+-]+)\s+(\S+)', rest):
        v = float(val)
        if unit == "ns/op":
            run["ns_per_op"] = v
        elif unit == "B/op":
            run["bytes_per_op"] = v
        elif unit == "allocs/op":
            run["allocs_per_op"] = v
        else:
            run["metrics"][unit] = v
    if name not in benches:
        benches[name] = []
        order.append(name)
    benches[name].append(run)

summary = []
for name in order:
    runs = benches[name]
    entry = {"name": name, "runs": runs}
    ns = [r["ns_per_op"] for r in runs if "ns_per_op" in r]
    if ns:
        entry["best_ns_per_op"] = min(ns)
    # Metric values are identical across repetitions (they are totals of a
    # deterministic run), so take them from the last repetition.
    entry["metrics"] = runs[-1]["metrics"]
    summary.append(entry)

doc = {
    "generated_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    # Host parallelism header: timings are only comparable next to the
    # cores the run had.
    "host": {"cpus": cpus, "gomaxprocs": gomaxprocs},
    "benchmarks": summary,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"\nwrote {out_path}")
PYEOF
