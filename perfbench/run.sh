#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload fig10-live --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Build outputs, the Go build
# cache and scratch files stay under $CARGO_TARGET_DIR (default
# .bench_build).
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gotmp"
build="$(cd "$build" && pwd)"
# The go command keeps its cache, module cache, temporary files and
# usage counters under these; all of them stay in the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
