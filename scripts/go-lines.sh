#!/usr/bin/env bash
# Prints the line counts of the tracked Go files outside bench/: non-test
# files and _test.go files, one number each.
#
#   scripts/go-lines.sh          # the working tree's tracked files
#   scripts/go-lines.sh REV      # the files of revision REV
#
# Run it before and after a change to report the net lines it adds or
# removes.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rev=${1:-}
files() {
	if [ -n "$rev" ]; then
		git ls-tree -r --name-only "$rev"
	else
		git ls-files
	fi | grep '\.go$' | grep -v '^bench/' || true
}
count() {
	local n=0 f
	while read -r f; do
		if [ -n "$rev" ]; then
			n=$((n + $(git show "$rev:$f" | wc -l)))
		elif [ -f "$f" ]; then
			n=$((n + $(wc -l <"$f")))
		fi
	done
	echo "$n"
}
echo "non-test $(files | grep -v '_test\.go$' | count)"
echo "test     $(files | grep '_test\.go$' | count)"
