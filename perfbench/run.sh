#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload fig7-ci --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
