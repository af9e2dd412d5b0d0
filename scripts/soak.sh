#!/usr/bin/env bash
# Runs the tests of every package that owns goroutines under the race
# detector, N times each: the live API (root), the cluster daemon, its TCP
# link, the ARQ channel, the segment log and the chunk store. A race or a
# flake that shows once in a few hundred runs shows here, where one run of
# `go test -race ./...` would pass it. Run from the repository root:
#
#	bash scripts/soak.sh 200
#
# N defaults to 20. The exit status is go test's.
set -euo pipefail
n=${1:-20}
exec go test -race -count="$n" . ./internal/daemon/ ./internal/livenet/ ./internal/relnet/ ./internal/seglog/ ./internal/chunkstore/
