#!/bin/sh
# Runs the PR's performance benchmark suite and captures the raw
# go-test JSON event stream (one event per line; benchmark results live
# in the "Output" fields of run/output events).
#
# Usage: scripts/bench.sh [benchtime] [output]
#   benchtime defaults to 1s; pass e.g. "1x" for a smoke run.
#   output defaults to BENCH_PR10.json (the current PR's capture); pass
#   e.g. BENCH_PR3.json to regenerate an earlier PR's file with the
#   same bench set.
#
# -benchmem is always on, so every capture carries B/op and allocs/op;
# benchdiff diffs and threshold-gates them alongside ns/op.
#
# Compare two captures with: go run ./scripts/benchdiff OLD.json NEW.json
#
# The event stream is staged in a temp file and only promoted to the
# output path when go test exits 0 — a compile error or bench panic
# must fail this script loudly instead of leaving a truncated capture
# behind (POSIX sh has no pipefail, so `go test | tee` would swallow
# the failure).
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"
OUT="${2:-BENCH_PR10.json}"
TMP="$(mktemp "$OUT.tmp.XXXXXX")"
trap 'rm -f "$TMP"' EXIT

if ! go test -run '^$' \
	-bench 'GatewayEndToEnd|GatewaySetup|ThroughputEngine|ReconstructParallel|FISTAReconstruct|FISTAWarmVsCold|FISTABatch|FleetClusterRound|FleetCheckpoint|FleetStreamPush|TelemetryOverhead|ApplyTCSR|ApplyCSR|NetGatewayRecords' \
	-benchtime "$BENCHTIME" -benchmem -json . ./internal/cs ./internal/netgw >"$TMP"; then
	echo "bench.sh: go test -bench failed; $OUT left untouched" >&2
	cat "$TMP" >&2
	exit 1
fi
mv "$TMP" "$OUT"
cat "$OUT"
echo "wrote $OUT" >&2
