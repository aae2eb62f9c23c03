#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source, then run
# it with the caller's arguments, e.g.
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build writes stays in the checkout, under .bench_build/ —
# Go's build cache and temporary files included — and everything a run
# writes goes to out/bench/. Both are git-ignored.
#
# No process outlives this script. The harness serves its loopback HTTP and
# SOAP endpoints from its own goroutines, and the one thing the go command
# would leave behind — the telemetry sidecar it forks, detached, the first
# time it sees a fresh config directory — is switched off below before go
# runs at all.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
    echo "benchmark/run.sh: $PWD holds no axml module (go.mod, internal/): nothing to measure" >&2
    exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
    go build -buildvcs=false -o "$build/axml-benchmark" ./benchmark
exec "$build/axml-benchmark" "$@"
