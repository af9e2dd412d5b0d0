#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write inside the checkout: the binary, the go build
# and module caches, go's temporary files and its telemetry counters (it
# keeps those under the user config directory) under .bench_build/, and
# the daemons' stores under .bench_build/run (the -dir default). Run from
# the repository root: bash bench/run.sh -workload deps8 -seed 1
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/mcpbench" .
exec "$build/mcpbench" "$@"
