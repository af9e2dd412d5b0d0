#!/usr/bin/env bash
# Prints the size of the program as ROADMAP.md and CHANGES.md quote it:
# the non-test Go lines outside bench/ (a module of its own), in total
# and then per package, largest first. A package is named by its
# directory with internal/ dropped; the root package is "mutablecp".
# Run from anywhere in the repository:
#
#	bash scripts/lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -exec wc -l {} + |
	awk '$2 != "total" {
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		sub(/^internal\//, "", dir)
		lines[dir == "" ? "mutablecp" : dir] += $1
	}
	END { for (dir in lines) print lines[dir], dir }' |
	sort -k1,1nr -k2,2 |
	awk 'function group(n,   s) {
		for (s = ""; n >= 1000; n = int(n / 1000)) s = sprintf(",%03d", n % 1000) s
		return n s
	}
	{ total += $1; row[NR] = $2 " " group($1) }
	END {
		print group(total) " non-test Go lines outside bench/"
		for (i = 1; i <= NR; i++) print row[i]
	}'
