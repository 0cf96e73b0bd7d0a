#!/usr/bin/env bash
# Regenerates the committed experiment outputs and compares them with the
# files in the repository:
#
#   scripts/check_results.sh
#
# `experiments -run all` must reproduce results_full.txt and `-run ext`
# results_extensions.txt byte for byte, except two tables whose columns
# measure the host's wall clock:
#   §4.5 (RL search cost)   only Rounds, Evals and Cache hits are compared;
#   virtual-time fleet      the Wall (s) and Speedup columns are dropped and
#                           runs of spaces collapsed (the dropped cells set
#                           the column widths).
# Run it from the repository root; it takes ~45 s on 2 vCPUs and exits
# non-zero with a unified diff of the normalized files on any mismatch.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/experiments" ./cmd/experiments
"$tmp/experiments" -run all -rounds 300 -seed 1 >"$tmp/results_full.txt"
"$tmp/experiments" -run ext -rounds 300 -seed 1 >"$tmp/results_extensions.txt"

# normalize prints a results file with the wall-clock columns masked.
# Table cells never hold two spaces in a row and columns are joined by at
# least two, so a table line splits into cells on runs of 2+ spaces; the
# note under a title is prose and stays one cell.
normalize() {
	python3 - "$1" <<'PY'
import re, sys

# title prefix -> the cells of a table line that are compared
masks = {
    "== §4.5 — RL search cost": lambda c: [c[0], c[4], c[5]],
    "== Extension — virtual-time fleet:": lambda c: c[:-2],
}
mask = None
for line in open(sys.argv[1], encoding="utf-8").read().split("\n"):
    if line.startswith("== "):
        mask = next((f for p, f in masks.items() if line.startswith(p)), None)
    elif line == "":
        mask = None
    elif mask:
        cells = re.split(r" {2,}", line.rstrip(" "))
        if len(cells) > 1:
            line = " ".join(mask(cells))
    print(line)
PY
}

status=0
for f in results_full.txt results_extensions.txt; do
	if ! diff -u --label "$f (committed)" --label "$f (fresh run)" \
		<(normalize "$f") <(normalize "$tmp/$f"); then
		echo "check_results: $f does not match a fresh run" >&2
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "check_results: results_full.txt and results_extensions.txt reproduced"
fi
exit "$status"
