#!/usr/bin/env bash
# Run `go test -run PATTERN` and fail if PATTERN selects no test.
#
#   scripts/gotest-run.sh PATTERN [go test flags] PKG...
#
# Flags taking a value must be written -flag=value. Every package
# argument must contribute at least one matching test;
# a pattern such as ./internal/... counts its packages together. This
# keeps a renamed or merged test from silently turning a CI soak step
# into a no-op.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 PATTERN [go test flags] PKG..." >&2
	exit 2
fi
pattern=$1
shift

flags=()
pkgs=()
for arg in "$@"; do
	case $arg in
	-*) flags+=("$arg") ;;
	*) pkgs+=("$arg") ;;
	esac
done
if [ ${#pkgs[@]} -eq 0 ]; then
	echo "$0: no packages given" >&2
	exit 2
fi

for pkg in "${pkgs[@]}"; do
	listed=$(go test "${flags[@]}" -list "$pattern" "$pkg")
	n=$(grep -cE '^(Test|Example|Benchmark|Fuzz)' <<<"$listed" || true)
	if [ "$n" -eq 0 ]; then
		echo "$0: -run '$pattern' selects no tests in $pkg" >&2
		exit 1
	fi
	echo "$0: -run '$pattern' selects $n tests in $pkg"
done

exec go test "${flags[@]}" -run "$pattern" "${pkgs[@]}"
