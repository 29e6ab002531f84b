#!/usr/bin/env bash
# The traffic-coverage gate. Every non-test function of internal/ that
# no traffic executes — neither the five benchmark workloads (one
# virtual second each, untraced and then traced, as `-trace 1` runs
# them) nor the committed CLI outputs (TestCommittedOutputs with
# -expensive) — must be named, with the reason it stays, in
# testdata/keep.txt; and every function named there must still exist
# and still be executed by no traffic.
#
#   scripts/traffic-coverage.sh    # prints file:line: key per unexecuted function
#
# A key is pkg.Func or pkg.Recv.Func (pkg is the package directory's
# name), read from the function's declaration line: the form keep.txt
# and TestEveryExportHasACaller share. The script exits 1, naming the
# offending keys, when an unexecuted function is not on the list or a
# listed one is executed or gone.
#
# The benchmark lives in its own module (bench/), so -coverpkg reaches
# nilicon/internal/... only through a workspace: the build uses a
# temporary go.work (GOWORK) over the repository root and bench/, and
# writes nothing under bench/. Takes about a minute of wall clock.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
keep="$root/testdata/keep.txt"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
pkgs=nilicon/internal/...

cat >"$work/go.work" <<EOF
go $(go env GOVERSION | sed 's/^go//')

use (
	$root
	$root/bench
)
EOF
mkdir -p "$work/bench-cov" "$work/test-cov" "$work/run"

echo "building the benchmark with coverage of $pkgs" >&2
# The binary writes its counters at exit only when its main package is
# instrumented too, so nilicon/bench joins the list (and is dropped from
# the merged profile below).
(cd "$root" && GOWORK="$work/go.work" go build -cover -coverpkg="$pkgs,nilicon/bench" -o "$work/nilibench" ./bench)

echo "running the five workloads at -seconds 1 -trace 1" >&2
(cd "$work/run" && GOCOVERDIR="$work/bench-cov" "$work/nilibench" -seconds 1 -trace 1 >/dev/null)

echo "running TestCommittedOutputs -expensive" >&2
(cd "$root" && GOWORK=off go test -count=1 -run TestCommittedOutputs -cover -coverpkg="$pkgs" \
	./cmd/niliconctl/ -expensive -args -test.gocoverdir="$work/test-cov" >/dev/null)

go tool covdata textfmt -i="$work/bench-cov,$work/test-cov" -o "$work/merged.txt"
grep -E '^(mode:|nilicon/internal/)' "$work/merged.txt" >"$work/internal.txt"
(cd "$root" && GOWORK=off go tool cover -func="$work/internal.txt") |
	awk '$NF == "0.0%" && $1 != "total:" { sub(/^nilicon\//, "", $1); print $1, $2 }' >"$work/uncovered.txt"

# Key each unexecuted function by its declaration line.
while read -r loc fn; do
	file=${loc%%:*}
	line=${loc#*:}
	line=${line%%:*}
	decl=$(sed -n "${line}p" "$root/$file")
	case $decl in
	"func $fn("* | "func $fn["* | "func ("*") $fn("*) ;;
	*)
		echo "traffic-coverage: $loc does not declare $fn: $decl" >&2
		exit 2
		;;
	esac
	recv=$(sed -nE 's/^func \(([A-Za-z_][A-Za-z0-9_]* )?\*?([A-Za-z_][A-Za-z0-9_]*).*/\2/p' <<<"$decl")
	key=$(basename "$(dirname "$file")").${recv:+$recv.}$fn
	echo "$loc $key"
done <"$work/uncovered.txt" >"$work/keyed.txt"
cat "$work/keyed.txt"

awk '{ print $2 }' "$work/keyed.txt" | LC_ALL=C sort >"$work/unexecuted.txt"
if dup=$(uniq -d "$work/unexecuted.txt") && [ -n "$dup" ]; then
	echo "traffic-coverage: two unexecuted functions share a key: $dup" >&2
	exit 2
fi
awk -F'\t' '!/^(#|$)/ { print $1 }' "$keep" | LC_ALL=C sort >"$work/kept.txt"

unkept=$(LC_ALL=C comm -23 "$work/unexecuted.txt" "$work/kept.txt")
stale=$(LC_ALL=C comm -13 "$work/unexecuted.txt" "$work/kept.txt")
if [ -n "$unkept" ]; then
	echo "FAIL: executed by no traffic and not in testdata/keep.txt (delete it, or keep it with a reason):" >&2
	sed 's/^/  /' <<<"$unkept" >&2
fi
if [ -n "$stale" ]; then
	echo "FAIL: in testdata/keep.txt but executed by traffic, or no longer a function (drop the entry):" >&2
	sed 's/^/  /' <<<"$stale" >&2
fi
[ -z "$unkept" ] && [ -z "$stale" ]
