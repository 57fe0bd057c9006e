#!/bin/sh
# Code nothing reaches is deleted rather than maintained (ROADMAP aim 2):
# from the `go doc -short -all` listing `make surface` counts, print every
# exported function of a package under internal/ whose name no non-test Go
# file of the repository (benchmark/ included) uses outside its own
# declaration, and fail unless it is one of the test oracles named below —
# reference implementations and checkers the tests hold production code
# against, kept beside what they check. The match is by bare name with
# string literals blanked out (a function's own panic message names it),
# so a namesake elsewhere hides a dead function and nothing live is ever
# flagged; methods are not looked at (a selector does not say whose method
# it calls, and an interface may be the only caller). An optional argument
# names another checkout to check.
set -eu
cd "${1:-$(dirname "$0")/..}"
GO="${GO:-go}"
# la.HessenbergLS is the batch least-squares solve GivensQR's incremental
# one is held to.
oracles='la.InvertUpper la.QRLeastSquares la.GramCond2 la.HessenbergLS sparse.RowNorms graph.IsPermutation matgen.PaperSet obs.MultiSink bench.Find obs.ReconcileDeviceLanes'
code=$(mktemp)
trap 'rm -f "$code"' EXIT
find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -exec sed -E 's/"([^"\\]|\\.)*"/""/g' {} + >"$code"
bad=0
for dir in $("$GO" list -f '{{.Dir}}' ./internal/...); do
	pkg=$("$GO" list -f '{{.Name}}' "$dir")
	for name in $("$GO" doc -short -all "$dir" | sed -nE 's/^func ([A-Z][A-Za-z0-9_]*)\(.*/\1/p'); do
		# Code lines only (a comment may name what it replaces), the
		# declaration itself aside.
		if grep -wE "$name" "$code" | grep -vE '^[[:space:]]*//' | grep -vqE "^func $name\("; then
			continue
		fi
		case " $oracles " in
		*" $pkg.$name "*) echo "unreached: $pkg.$name (test oracle)" ;;
		*)
			echo "unreached: $pkg.$name has no caller outside _test.go files: delete it, or name it as a test oracle in $0" >&2
			bad=1
			;;
		esac
	done
done
[ "$bad" -eq 0 ] || exit 1
echo "unreached: ok"
