#!/bin/sh
# Checks that two of EXPERIMENTS.md's paper tables are what their
# regenerate commands print: the Text-1 fiducial rows of
#   go run ./cmd/delineate -records 5 -dur 60 -noise ambulatory
# and the Figure 1 ladder of
#   go run ./examples/quickstart
# Prints a unified diff and exits non-zero on any difference. Run it
# from the repository root: sh scripts/claimtables.sh
set -e
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# section prints the EXPERIMENTS.md section whose heading starts with $1.
section() {
	awk -v h="## $1" '/^## /{p = index($0, h) == 1} p' EXPERIMENTS.md
}

# compare diffs the rows matching regex $2 of section $1 against those
# of the command output in file $3.
compare() {
	section "$1" | grep -E "$2" > "$tmp/doc" || true
	grep -E "$2" "$3" > "$tmp/cmd" || true
	if [ ! -s "$tmp/doc" ] || [ ! -s "$tmp/cmd" ]; then
		echo "claimtables: no $1 rows in EXPERIMENTS.md or in the command output" >&2
		return 1
	fi
	diff -u --label "EXPERIMENTS.md $1" --label "command" "$tmp/doc" "$tmp/cmd"
}

go run ./cmd/delineate -records 5 -dur 60 -noise ambulatory > "$tmp/text1.out"
go run ./examples/quickstart > "$tmp/fig1.out"
status=0
compare 'Text-1' '^(R|QRSon|QRSoff|Pon|Ppeak|Poff|Ton|Tpeak|Toff) +Se=' "$tmp/text1.out" || status=1
compare 'Figure 1' '^(abstraction level|(raw-streaming|compressed-sensing|delineation|classification|af-alarm) +[0-9])' "$tmp/fig1.out" || status=1
exit $status
