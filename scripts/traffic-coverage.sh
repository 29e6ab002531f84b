#!/usr/bin/env bash
# Prints every non-test function of internal/ that no traffic executes:
# neither the five benchmark workloads (one virtual second each) nor the
# committed CLI outputs (TestCommittedOutputs with -expensive). This is
# the evidence behind a "no traffic uses this" claim; it is not a gate.
#
#   scripts/traffic-coverage.sh          # prints file:line: function
#
# The benchmark lives in its own module (bench/), so -coverpkg reaches
# nilicon/internal/... only through a workspace: the build uses a
# temporary go.work (GOWORK) over the repository root and bench/, and
# writes nothing under bench/. Takes about a minute of wall clock.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
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

echo "running the five workloads at -seconds 1" >&2
(cd "$work/run" && GOCOVERDIR="$work/bench-cov" "$work/nilibench" -seconds 1 >/dev/null)

echo "running TestCommittedOutputs -expensive" >&2
(cd "$root" && GOWORK=off go test -count=1 -run TestCommittedOutputs -cover -coverpkg="$pkgs" \
	./cmd/niliconctl/ -expensive -args -test.gocoverdir="$work/test-cov" >/dev/null)

go tool covdata textfmt -i="$work/bench-cov,$work/test-cov" -o "$work/merged.txt"
grep -E '^(mode:|nilicon/internal/)' "$work/merged.txt" >"$work/internal.txt"
(cd "$root" && GOWORK=off go tool cover -func="$work/internal.txt") |
	awk '$NF == "0.0%" && $1 != "total:" { sub(/^nilicon\//, "", $1); print $1, $2 }'
