#!/usr/bin/env bash
# Runs the benchmark on a base revision and on the working tree in
# alternating pairs, and prints each side's median and quartiles of one
# metric, how many pairs the working tree won, and the verdict on a
# claimed gain.
#
#   scripts/bench-pairs.sh REV WORKLOAD N [bench flags]
#   scripts/bench-pairs.sh HEAD kv-replay 10 -seed 1
#   ALL=1 scripts/bench-pairs.sh HEAD redis-failover 4 -seconds 1
#
# Both sides run from temporary trees built the same way (removed on
# exit): REV is exported with git archive, and the working tree's files
# (tracked and untracked, less what .gitignore excludes) are copied as
# they stand. Each side builds and runs through `bash bench/run.sh
# -workload WORKLOAD [bench flags]` in its own tree, with its own fresh
# build cache. Pair i runs the base first when i is odd and the working
# tree first when i is even.
# METRIC (default sim_speed_x) names the metric; BETTER (default: the
# direction BENCHMARK.json gives it) is "higher" or "lower".
#
# The verdict holds a claimed gain to the rule the benchmark's gate
# applies: the working tree wins at least nine in ten pairs, and the gap
# between the medians exceeds the base's interquartile range.
#
# ALL=1 also prints, for every end-to-end metric of BENCHMARK.json, the
# base and working-tree medians beside the metric's bound, and flags a
# metric whose median got worse by more than its bound (a relative
# change). It flags a metric UNRESOLVED when the base runs' interquartile
# range, relative to their median, exceeds the bound and the two sides'
# runs overlap: a change within the noise cannot be told from no change,
# so the metric is reported as unresolved, not as unchanged. Flags are
# reported, not fatal: one short pair is noisy. It also prints each
# side's failed share (failed over attempted, summed
# over its runs) and names any pair whose run reported "correct":false.
# A run that exits non-zero stops the script.
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
spec=$(tr -d ' \n\t' <"$root/BENCHMARK.json")
better=${BETTER:-$(printf '%s' "$spec" |
	sed -n "s/.*{\"name\":\"$metric\",\"unit\":\"[^\"]*\",\"better\":\"\([a-z]*\)\".*/\1/p")}
if [ "$better" != higher ] && [ "$better" != lower ]; then
	echo "$0: no direction for metric $metric; set BETTER=higher or BETTER=lower" >&2
	exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
base="$work/base" change="$work/change"
mkdir "$base" "$change"
baserev=$(git -C "$root" rev-parse --short "$rev")
git -C "$root" archive "$rev" | tar -x -C "$base"
(cd "$root" && git ls-files -z -co --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf -) | tar -x -C "$change"

# run DIR OUT [bench flags] runs the benchmark in tree DIR, keeps its
# result line in OUT and prints the metric's value.
run() {
	local dir=$1 out=$2 line v
	shift 2
	line=$(cd "$dir" && bash bench/run.sh -workload "$workload" "$@" | tail -n 1)
	printf '%s\n' "$line" >"$out"
	v=$(value "$metric" <"$out")
	if [ -z "$v" ]; then
		echo "$0: no $metric in the run's result line: $line" >&2
		return 1
	fi
	printf '%s\n' "$v"
}

# value NAME prints metric NAME's value from the result line on stdin.
value() {
	sed -n "s/.*\"$1\":{\"value\":\([-0-9.e+]*\).*/\1/p"
}

bases=() changes=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		b=$(run "$base" "$work/base.$i" "$@")
		c=$(run "$change" "$work/change.$i" "$@")
		order="base first"
	else
		c=$(run "$change" "$work/change.$i" "$@")
		b=$(run "$base" "$work/base.$i" "$@")
		order="change first"
	fi
	bases+=("$b")
	changes+=("$c")
	echo "pair $i ($order): base $b  change $c"
done

# stats VALUES... prints the median, first and third quartiles (linear
# interpolation between order statistics), minimum and maximum.
stats() {
	printf '%s\n' "$@" | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, l) {
			h = (NR - 1) * p + 1
			l = int(h)
			return l >= NR ? v[NR] : v[l] + (h - l) * (v[l + 1] - v[l])
		}
		END { printf "%.6g %.6g %.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75), v[1], v[NR] }'
}

read -r bmed bq1 bq3 _ <<<"$(stats "${bases[@]}")"
read -r cmed cq1 cq3 _ <<<"$(stats "${changes[@]}")"
echo "$metric ($better is better), workload $workload, $pairs pairs, flags: ${*:-none}"
awk -v n="base ($baserev)" -v m="$bmed" -v a="$bq1" -v b="$bq3" \
	'BEGIN { printf "%-28s median %.4g  Q1 %.4g  Q3 %.4g  IQR %.4g\n", n, m, a, b, b - a }'
awk -v n="change (working tree)" -v m="$cmed" -v a="$cq1" -v b="$cq3" \
	'BEGIN { printf "%-28s median %.4g  Q1 %.4g  Q3 %.4g  IQR %.4g\n", n, m, a, b, b - a }'
paste -d ' ' <(printf '%s\n' "${bases[@]}") <(printf '%s\n' "${changes[@]}") |
	awk -v better="$better" -v bmed="$bmed" -v cmed="$cmed" -v iqr="$(awk -v a="$bq1" -v b="$bq3" 'BEGIN { print b - a }')" '
	{ if ($2 == $1) ties++; else if ((better == "higher") == ($2 > $1)) wins++ }
	END {
		printf "change wins %d of %d pairs (%d ties)\n", wins, NR, ties
		gap = better == "higher" ? cmed - bmed : bmed - cmed
		need = int((9 * NR + 9) / 10)
		ok = wins >= need && gap > iqr
		printf "verdict: %s (needs >= %d of %d pairs won and a median gap %.4g > base IQR %.4g)\n",
			ok ? "gain shown" : "gain not shown", need, NR, gap, iqr
	}'

if [ "${ALL:-0}" = 1 ]; then
	# The failed share a pipeline judges: sum of failed over sum of
	# attempted across one side's runs. A run whose result line reads
	# "correct":false is named.
	for side in base change; do
		for ((i = 1; i <= pairs; i++)); do
			printf '%d %s\n' "$i" "$(cat "$work/$side.$i")"
		done | awk -v side="$side" '
			{
				a = $0; f = $0
				sub(/.*"attempted":/, "", a); sub(/[^0-9].*/, "", a)
				sub(/.*"failed":/, "", f); sub(/[^0-9].*/, "", f)
				att += a; fail += f
				if (index($0, "\"correct\":false")) bad = bad " " $1
			}
			END {
				printf "%-6s failed %d of %d attempted (%.4g%%)%s\n", side, fail, att,
					att ? 100 * fail / att : 0, bad == "" ? "" : "; \"correct\":false in pair" bad
			}'
	done
	echo "end-to-end medians (base, change, relative change, bound; WORSE: worse by more than the bound;"
	echo "  UNRESOLVED: base IQR over its median exceeds the bound and the two sides' runs overlap)"
	printf '%s\n' "$spec" | sed -n 's/.*"end_to_end":\[\([^]]*\)\].*/\1/p' | sed 's/},{/}\n{/g' |
		sed -n 's/.*"name":"\([^"]*\)".*"better":"\([a-z]*\)","bound":\([-0-9.e+]*\).*/\1 \2 \3/p' |
		while read -r name dir bound; do
			bv=() cv=()
			for ((i = 1; i <= pairs; i++)); do
				b=$(value "$name" <"$work/base.$i")
				c=$(value "$name" <"$work/change.$i")
				[ -n "$b" ] && bv+=("$b")
				[ -n "$c" ] && cv+=("$c")
			done
			if [ ${#bv[@]} -eq 0 ] || [ ${#cv[@]} -eq 0 ]; then
				printf '  %-16s not reported\n' "$name"
				continue
			fi
			read -r bm bq1 bq3 bmin bmax <<<"$(stats "${bv[@]}")"
			read -r cm _ _ cmin cmax <<<"$(stats "${cv[@]}")"
			awk -v name="$name" -v dir="$dir" -v bound="$bound" -v b="$bm" -v c="$cm" \
				-v q1="$bq1" -v q3="$bq3" -v bmin="$bmin" -v bmax="$bmax" -v cmin="$cmin" -v cmax="$cmax" 'BEGIN {
				rel = b == 0 ? (c == 0 ? 0 : (c > 0 ? 1 : -1)) : (c - b) / (b < 0 ? -b : b)
				worse = dir == "higher" ? -rel > bound : rel > bound
				spread = b == 0 ? (q3 > q1 ? 1e300 : 0) : (q3 - q1) / (b < 0 ? -b : b)
				unresolved = spread > bound && cmin <= bmax && bmin <= cmax
				printf "  %-16s base %-12.6g change %-12.6g %+8.2f%%  bound %g%%%s%s\n",
					name, b, c, 100 * rel, 100 * bound, worse ? "  WORSE" : "", unresolved ? "  UNRESOLVED" : ""
			}'
		done
fi
