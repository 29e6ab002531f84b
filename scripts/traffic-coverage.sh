#!/usr/bin/env bash
# The traffic-coverage gate, over three coverage sources:
#
#   traffic  the five benchmark workloads (one virtual second each,
#            untraced and then traced, as `-trace 1` runs them);
#   outputs  the committed CLI outputs (TestCommittedOutputs with
#            -expensive);
#   tier-1   `go test ./...` under -coverpkg=nilicon/internal/....
#
# It holds two gates. The function gate: every non-test function of
# internal/ that no traffic executes (traffic and outputs merged) must be
# named, with the reason it stays, in testdata/keep.txt; and every
# function named there must still exist and still be executed by no
# traffic. The statement ceiling: the internal/ statements that none of
# the three sources executes may number at most the one figure in
# testdata/statement-ceiling.txt.
#
#   scripts/traffic-coverage.sh          # prints file:line: key per unexecuted function,
#                                        # then the two statement counts
#   scripts/traffic-coverage.sh -record  # the same, then writes the merged count
#                                        # to testdata/statement-ceiling.txt
#
# A key is pkg.Func or pkg.Recv.Func (pkg is the package directory's
# name), read from the function's declaration line: the form keep.txt
# and TestEveryExportHasACaller share. The script exits 1, naming the
# offending keys, when an unexecuted function is not on the list or a
# listed one is executed or gone; and exits 1 when the merged count of
# unexecuted statements exceeds the ceiling. Lower the ceiling with
# -record once a change executes or deletes statements; a change that
# raises it says why.
#
# The benchmark lives in its own module (bench/), so -coverpkg reaches
# nilicon/internal/... only through a workspace: the build uses a
# temporary go.work (GOWORK) over the repository root and bench/, and
# writes nothing under bench/. Takes a little over a minute of wall
# clock on two CPUs, tier-1 most of it.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
keep="$root/testdata/keep.txt"
ceiling="$root/testdata/statement-ceiling.txt"
record=
case ${1:-} in
-record) record=1 ;;
"") ;;
*)
	echo "usage: scripts/traffic-coverage.sh [-record]" >&2
	exit 2
	;;
esac
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
mkdir -p "$work/bench-cov" "$work/test-cov" "$work/tier1-cov" "$work/run"

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

echo "running tier-1 (go test ./...) with coverage of $pkgs" >&2
(cd "$root" && GOWORK=off go test -count=1 -cover -coverpkg="$pkgs" ./... \
	-args -test.gocoverdir="$work/tier1-cov" >/dev/null)

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
# Statements executed by none of the merged profiles, of all. A block
# may appear once per profile merged; it counts once, executed if any
# run executed it.
unexecuted() {
	awk 'NR > 1 { stmts[$1] = $2; if ($3 > 0) hit[$1] = 1 }
		END { for (b in stmts) { total += stmts[b]; if (!(b in hit)) missed += stmts[b] }
			print missed + 0, total + 0 }' "$1"
}
read -r missed total < <(unexecuted "$work/internal.txt")
echo "traffic-coverage: $missed of $total internal/ statements executed by no traffic"

go tool covdata textfmt -i="$work/bench-cov,$work/test-cov,$work/tier1-cov" -o "$work/all.txt"
grep -E '^(mode:|nilicon/internal/)' "$work/all.txt" >"$work/all-internal.txt"
read -r missed total < <(unexecuted "$work/all-internal.txt")
limit=$(tr -d '[:space:]' <"$ceiling")
echo "traffic-coverage: $missed of $total internal/ statements executed by neither traffic nor tier-1 (ceiling $limit)"
over=
if [ -n "$record" ]; then
	echo "$missed" >"$ceiling"
	echo "traffic-coverage: recorded ceiling $missed in testdata/statement-ceiling.txt" >&2
elif [ "$missed" -gt "$limit" ]; then
	echo "FAIL: $missed internal/ statements executed by neither traffic nor tier-1, above the ceiling of $limit (reach the new ones with a test or delete them; raising the ceiling with -record needs a reason)" >&2
	over=1
fi

[ -z "$unkept" ] && [ -z "$stale" ] && [ -z "$over" ]
