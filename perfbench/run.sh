#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload fleet-daily --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# run artefact (WAL directories, alert logs, span files, overhead reports)
# stay inside the checkout, under .bench_build/ and .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
# Keep the Go toolchain's caches, temporary files and per-user config
# (including its telemetry counters) inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
