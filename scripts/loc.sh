#!/bin/sh
# Non-test Go lines per package, benchmark/ excluded (it is the fixed
# yardstick, not the code being sized) and so are testdata/ trees (test
# fixtures, such as the reachability gate's module): the "line count goes
# down" bar of ROADMAP aim 2 as a command. Prints one row per package directory and a
# total; lines are raw `wc -l` lines, so reformatting does not move them
# much and comments count — deleting comments is not a reduction anyone
# should claim. An optional argument names another checkout to size.
set -eu
cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.git/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); if (dir == ".") dir = "./"
		n[dir] += $1; total += $1
	}
	END {
		for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}'
