#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh -workload redis-ycsb -seed 1
#
# Every build artifact (Go build cache, binary) stays in .bench_build
# under the current directory, and so does the toolchain's per-user
# configuration directory (telemetry counters), so the run reads and
# writes nothing outside the checkout. Outside a full checkout (no
# ../internal next to bench/) the build fails and the script exits
# non-zero.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/nilibench" .) >&2
exec "$out/nilibench" "$@"
