#!/usr/bin/env bash
# Runs the benchmark on a base revision and on the working tree in
# alternating pairs, and prints each side's median and quartiles of one
# metric plus how many pairs the working tree won.
#
#   scripts/bench-pairs.sh REV WORKLOAD N [bench flags]
#   scripts/bench-pairs.sh HEAD kv-replay 10 -seed 1
#
# REV is checked out in a temporary git worktree (removed on exit).
# Both sides build and run through `bash bench/run.sh -workload
# WORKLOAD [bench flags]` from their own checkout. Pair i runs the base
# first when i is odd and the working tree first when i is even. METRIC
# (default sim_speed_x) names the metric; BETTER (default: the direction
# BENCHMARK.json gives it) is "higher" or "lower". A run that exits
# non-zero stops the script.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 REV WORKLOAD N [bench flags]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3
shift 3
case $pairs in
'' | *[!0-9]* | 0)
	echo "$0: N must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac
root=$(git rev-parse --show-toplevel)
metric=${METRIC:-sim_speed_x}
better=${BETTER:-$(tr -d ' \n' <"$root/BENCHMARK.json" |
	sed -n "s/.*{\"name\":\"$metric\",\"unit\":\"[^\"]*\",\"better\":\"\([a-z]*\)\".*/\1/p")}
if [ "$better" != higher ] && [ "$better" != lower ]; then
	echo "$0: no direction for metric $metric; set BETTER=higher or BETTER=lower" >&2
	exit 2
fi

base=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$base" >/dev/null 2>&1 || true
	rm -rf "$base"
}
trap cleanup EXIT
rm -rf "$base"
git -C "$root" worktree add --quiet --detach "$base" "$rev"
baserev=$(git -C "$base" rev-parse --short HEAD)

# run DIR [bench flags] prints the metric's value from one run in
# checkout DIR.
run() {
	local dir=$1 line v
	shift
	line=$(cd "$dir" && bash bench/run.sh -workload "$workload" "$@" | tail -n 1)
	v=$(printf '%s\n' "$line" | sed -n "s/.*\"$metric\":{\"value\":\([-0-9.e+]*\).*/\1/p")
	if [ -z "$v" ]; then
		echo "$0: no $metric in the run's result line: $line" >&2
		return 1
	fi
	printf '%s\n' "$v"
}

bases=() changes=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		b=$(run "$base" "$@")
		c=$(run "$root" "$@")
		order="base first"
	else
		c=$(run "$root" "$@")
		b=$(run "$base" "$@")
		order="change first"
	fi
	bases+=("$b")
	changes+=("$c")
	echo "pair $i ($order): base $b  change $c"
done

# summary NAME VALUES... prints median and quartiles (linear
# interpolation between order statistics).
summary() {
	local name=$1
	shift
	printf '%s\n' "$@" | sort -g | awk -v name="$name" '
		{ v[NR] = $1 }
		function q(p,   h, l) {
			h = (NR - 1) * p + 1
			l = int(h)
			return l >= NR ? v[NR] : v[l] + (h - l) * (v[l + 1] - v[l])
		}
		END { printf "%-28s median %.4g  Q1 %.4g  Q3 %.4g  IQR %.4g\n", name, q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}

echo "$metric ($better is better), workload $workload, $pairs pairs, flags: ${*:-none}"
summary "base ($baserev)" "${bases[@]}"
summary "change (working tree)" "${changes[@]}"
paste -d ' ' <(printf '%s\n' "${bases[@]}") <(printf '%s\n' "${changes[@]}") | awk -v better="$better" '
	{ if ($2 == $1) ties++; else if ((better == "higher") == ($2 > $1)) wins++ }
	END { printf "change wins %d of %d pairs (%d ties)\n", wins, NR, ties }'
