#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments. This is
# BENCHMARK.json's command: run it from the repository root. Everything the
# build and the run write — go's build cache, temp files and telemetry
# counters, the binary, the disk stores, span files — stays under
# .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" -scratch "$build" "$@"
