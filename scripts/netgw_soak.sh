#!/bin/sh
# Race-enabled soak of the networked gateway: builds wbsn-gateway and
# wbsn-loadgen with -race, runs the server with its control plane up,
# replays >= 100 concurrent fault-injected streams of traced (v2)
# frames against it for the soak window with in-process digest
# verification, then asserts trace continuity — every published window
# tree must stitch node-side spans to gateway-side spans — round-trips
# a session eviction through the control plane, and drains the server
# with SIGTERM. The run fails on any stream failure, any digest
# mismatch, broken trace trees, any detected data race, or an unclean
# drain.
#
# Usage: scripts/netgw_soak.sh [run_for] [streams]
#   run_for defaults to 30s; streams defaults to 100.
set -eu
cd "$(dirname "$0")/.."

RUN_FOR="${1:-30s}"
STREAMS="${2:-100}"
ADDR="127.0.0.1:19765"
TEL_ADDR="127.0.0.1:19766"
BIN="$(mktemp -d)"
trap 'kill "$GW_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -race -o "$BIN/wbsn-gateway" ./cmd/wbsn-gateway
go build -race -o "$BIN/wbsn-loadgen" ./cmd/wbsn-loadgen
go build -o "$BIN/telemetrycheck" ./scripts/telemetrycheck

# Short records + solver early exit keep per-window decode cheap enough
# that a single CI core sustains the stream count under -race.
"$BIN/wbsn-gateway" -addr "$ADDR" -seed 42 -solver-iters 40 -solver-tol 1e-3 \
	-telemetry "$TEL_ADDR" -drain-timeout 60s 2>gateway.soak.log &
GW_PID=$!

# Wait for the listener.
i=0
until "$BIN/wbsn-loadgen" -addr "$ADDR" -seed 42 -solver-iters 40 -solver-tol 1e-3 \
	-streams 1 -records 1 -duration 4 >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 20 ]; then
		echo "netgw_soak: gateway did not come up" >&2
		cat gateway.soak.log >&2
		exit 1
	fi
	sleep 0.5
done

echo "netgw_soak: soaking $STREAMS streams for $RUN_FOR with fault injection (traced frames)" >&2
"$BIN/wbsn-loadgen" -addr "$ADDR" -seed 42 -solver-iters 40 -solver-tol 1e-3 \
	-streams "$STREAMS" -records 4 -duration 4 -run-for "$RUN_FOR" -verify -trace \
	-timeout 10s -max-attempts 30 \
	-fault-reset 0.02 -fault-truncate 0.02 -fault-bitflip 0.03 \
	-fault-slowloris 0.01 -fault-dup 0.1

# Trace continuity under faults: every published tree must carry spans
# from both sides of the wire. The sessions from the soak are still in
# their TTL, so the eviction round-trip runs against a real table.
echo "netgw_soak: checking trace continuity and control plane" >&2
"$BIN/telemetrycheck" -min-trees 10 -evict-one "http://$TEL_ADDR"

# Graceful drain must complete (wbsn-gateway exits 0 on a clean drain,
# 1 on a drain-timeout overrun or a -race detection).
kill -TERM "$GW_PID"
wait "$GW_PID"
GW_RC=$?
trap 'rm -rf "$BIN"' EXIT
if [ "$GW_RC" -ne 0 ]; then
	echo "netgw_soak: gateway exited $GW_RC (unclean drain or data race)" >&2
	cat gateway.soak.log >&2
	exit 1
fi
if grep -q 'DATA RACE' gateway.soak.log; then
	echo "netgw_soak: data race detected in gateway" >&2
	cat gateway.soak.log >&2
	exit 1
fi
tail -2 gateway.soak.log >&2
rm -f gateway.soak.log
echo "netgw_soak: OK" >&2
