#!/bin/sh
# The knob inventory of the command-line tools, as a file: every cmd/*
# binary's -h output (flag names, types, defaults, usage) must equal
# scripts/flags.golden byte for byte, so an added, renamed or re-defaulted
# flag is a reviewed diff. Then every out-of-range count a front end takes
# must be refused with a non-zero exit and an error, never a panic (a
# zero device or pool count used to reach a constructor that panics) and
# never a silent default (a daemon that starts serving fails the check by
# timing out). So must an unknown name in a -fig list and a -csv
# directory that cannot be written: experiments used to drop the one and
# report the other with exit 0. `sh scripts/cli_check.sh -update`
# rewrites the golden; an optional directory argument names another
# checkout to check.
set -eu
update=
if [ "${1:-}" = "-update" ]; then
	update=1
	shift
fi
cd "${1:-$(dirname "$0")/..}"
GO="${GO:-go}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"
for dir in cmd/*/; do
	"$GO" build -o "$tmp/bin/" "./$dir"
done

for bin in "$tmp"/bin/*; do
	name=$(basename "$bin")
	echo "== $name"
	# -h exits 0; the usage line names the binary by its path.
	"$bin" -h 2>&1 | sed "s|^Usage of $bin:|Usage of $name:|"
done >"$tmp/flags"
if [ -n "$update" ]; then
	cp "$tmp/flags" scripts/flags.golden
	echo "cli-check: wrote scripts/flags.golden"
elif ! diff -u scripts/flags.golden "$tmp/flags"; then
	echo "cli-check: -h output differs from scripts/flags.golden" >&2
	exit 1
fi

bad=0
while read -r name args; do
	status=0
	timeout 60 "$tmp/bin/$name" $args >"$tmp/out" 2>"$tmp/err" || status=$?
	if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
		echo "cli-check: $name $args: exit $status, want an error exit" >&2
		bad=1
	elif grep -qE 'panic:|goroutine ' "$tmp/err"; then
		echo "cli-check: $name $args panicked:" >&2
		head -5 "$tmp/err" >&2
		bad=1
	fi
done <<EOF
cagmres -devices 0
matinfo -devices 0
cagmresd -addr 127.0.0.1:0 -pool 0
cagmresd -addr 127.0.0.1:0 -devices 0
cagmresd -addr 127.0.0.1:0 -queue -1
cagmresd -addr 127.0.0.1:0 -batch 0
cagmresd -addr 127.0.0.1:0 -retain -1
cagmresd -addr 127.0.0.1:0 -brownout 2,1
loadgen -clients 0
cagmres-router -addr 127.0.0.1:0
cagmres-router -addr 127.0.0.1:0 -backends a=http://127.0.0.1:1,a=http://127.0.0.1:2
cagmres-router -addr 127.0.0.1:0 -backends http://127.0.0.1:1 -max-hops 0
experiments -devices 0
experiments -scale -1
experiments -fig 10 -csv /dev/null/sub
experiments -fig 10,bogus
EOF
[ "$bad" -eq 0 ] || exit 1
echo "cli-check: ok"
