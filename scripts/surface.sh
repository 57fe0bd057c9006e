#!/bin/sh
# Exported identifiers per library package (commands export nothing), from
# `go doc -short -all`: every exported constant, variable, function,
# type, method and struct field is one — the API a caller can reach and
# every option it can set, so a surface-collapse change reports a
# before/after the way `make loc` reports lines. Prints one row per
# package directory and a total. An optional argument names another
# checkout to size.
set -eu
cd "${1:-$(dirname "$0")/..}"
GO="${GO:-go}"
"$GO" list -f '{{if ne .Name "main"}}{{.Dir}}{{end}}' ./... | while read -r dir; do
	rel=".${dir#"$PWD"}"
	[ "$rel" = "." ] && rel="./"
	# Declarations start a line; grouped constants and struct fields are
	# tab-indented exported names inside their block.
	n=$("$GO" doc -short -all "$dir" 2>/dev/null | grep -cE '^(func|type|const|var) |^	[A-Z][A-Za-z0-9_]*( |$)' || true)
	printf '%7d %s\n' "$n" "$rel"
done | awk '{ total += $1; print } END { printf "%7d total\n", total }'
