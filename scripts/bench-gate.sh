#!/usr/bin/env bash
# Runs every benchmark workload once (seed 1, one virtual second each)
# and fails if any virtual-time row differs from the committed baseline,
# scripts/bench-baseline.json. The wall-clock rows (sim_speed_x,
# peak_rss_mb, setup_s) depend on the machine and are not compared; the
# others, with each run's units, attempted, failed and correct, are
# compared as the exact text the benchmark printed.
#
#   scripts/bench-gate.sh [OUT]           # check; keep the run document in OUT
#   scripts/bench-gate.sh -record [OUT]   # rewrite the baseline from a fresh run
#
# A change that moves a virtual-time row on purpose re-records the
# baseline with -record and explains the move. A run that exits non-zero
# (a client validation failure, a server error) fails the gate too.
set -euo pipefail

record=0
if [ "${1:-}" = -record ]; then
	record=1
	shift
fi
root=$(git rev-parse --show-toplevel)
baseline="$root/scripts/bench-baseline.json"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out=${1:-$work/run.json}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac

(cd "$root" && bash bench/run.sh -seconds 1 -out "$out" >/dev/null)

# rows FILE prints "workload row value" for every judged row of a run
# document or of the baseline, in file order.
rows() {
	awk '
	/^ *"[a-z0-9_]+": / {
		key = $1
		gsub(/[":]/, "", key)
		val = $2
		sub(/,$/, "", val)
		if (key == "workload") {
			w = val
			gsub(/"/, "", w)
			next
		}
		if (val == "{") {
			obj = key
			next
		}
		if (key == "value")
			key = obj
		else if (obj != "rows" && key !~ /^(units|attempted|failed|correct)$/)
			next
		if (w != "" && key !~ /^(sim_speed_x|peak_rss_mb|setup_s)$/)
			print w, key, val
	}
	/^ *}/ { if (obj == "rows") obj = "" }' "$1"
}

if [ "$record" = 1 ]; then
	rows "$out" | awk '
	function close_run() {
		if (w != "")
			printf "\n      }\n    }"
	}
	BEGIN { printf "{\n  \"seed\": 1,\n  \"seconds\": 1,\n  \"runs\": [" }
	$1 != w {
		close_run()
		printf "%s\n    {\n      \"workload\": \"%s\"", w == "" ? "" : ",", $1
		w = $1
		inrows = 0
	}
	$2 ~ /^(units|attempted|failed|correct)$/ {
		printf ",\n      \"%s\": %s", $2, $3
		next
	}
	{
		printf "%s\n        \"%s\": %s", inrows ? "," : ",\n      \"rows\": {", $2, $3
		inrows = 1
	}
	END {
		close_run()
		printf "\n  ]\n}\n"
	}' >"$baseline"
	echo "recorded $(rows "$baseline" | wc -l) rows in $baseline"
	exit 0
fi

rows "$baseline" >"$work/want"
rows "$out" >"$work/got"
awk '
	NR == FNR { want[$1 " " $2] = $3; next }
	{
		k = $1 " " $2
		if (!(k in want))
			printf "workload %s row %s: %s, not in the baseline\n", $1, $2, $3
		else if (want[k] != $3)
			printf "workload %s row %s: baseline %s, run %s\n", $1, $2, want[k], $3
		seen[k] = 1
	}
	END {
		for (k in want)
			if (!(k in seen)) {
				split(k, p, " ")
				printf "workload %s row %s: baseline %s, missing from the run\n", p[1], p[2], want[k]
			}
	}' "$work/want" "$work/got" >"$work/diff"
if [ -s "$work/diff" ]; then
	cat "$work/diff" >&2
	echo "bench gate: $(wc -l <"$work/diff") rows differ from $baseline; re-record with scripts/bench-gate.sh -record if the move is intended" >&2
	exit 1
fi
echo "bench gate: all $(wc -l <"$work/got") rows match $baseline"
