#!/bin/sh
# Telemetry endpoint smoke test: start `wbsn-sim -fleet -telemetry` on
# an ephemeral port, scrape /metrics while the sweep runs, and verify
# the JSON carries real traffic on every pipeline layer (stage latency
# histograms, ARQ counters, gateway queue gauge, radio energy, and the
# adaptive-solver counters of the fleet-cs-lossy workload: solves, warm
# seeds, early exits, momentum restarts, warm resets at patient
# boundaries, and the iteration histogram). Then checks the control
# surfaces beside /metrics: /traces must carry stitched end-to-end
# window trees, and /healthz, /buildinfo and /sessions must answer
# well-formed. Fails non-zero if the endpoint never comes up or never
# populates.
set -eu
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
SIM_PID=""
cleanup() {
	[ -n "$SIM_PID" ] && kill "$SIM_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/wbsn-sim" ./cmd/wbsn-sim
go build -o "$WORK/telemetrycheck" ./scripts/telemetrycheck

# Linger keeps the endpoint alive after the sweep so a slow scraper
# still sees the fully-populated registry. The log exists before the
# sim starts, so the first poll below never races its redirection.
: >"$WORK/stderr.log"
"$WORK/wbsn-sim" -fleet -telemetry 127.0.0.1:0 -telemetry-linger 120s \
	>"$WORK/stdout.log" 2>"$WORK/stderr.log" &
SIM_PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR="$(sed -n 's|^telemetry: listening on http://\([^/]*\)/metrics$|\1|p' "$WORK/stderr.log" | head -n 1)"
	[ -n "$ADDR" ] && break
	kill -0 "$SIM_PID" 2>/dev/null || { echo "telemetry_smoke: wbsn-sim exited early" >&2; cat "$WORK/stderr.log" >&2; exit 1; }
	sleep 0.2
	i=$((i + 1))
done
if [ -z "$ADDR" ]; then
	echo "telemetry_smoke: endpoint never announced its address" >&2
	cat "$WORK/stderr.log" >&2
	exit 1
fi
echo "telemetry_smoke: checking http://$ADDR"

# The sim has no network sessions (-want-sessions 0) and may already be
# in its post-run linger (-allow-draining), but /traces must hold
# stitched window trees from the fleet sweep.
i=0
while [ $i -lt 300 ]; do
	if "$WORK/telemetrycheck" -min-trees 1 -want-sessions 0 -allow-draining "http://$ADDR" \
		pipeline.stage.cs.ns \
		pipeline.stage.link.ns \
		pipeline.stage.gateway_decode.ns \
		link.packets \
		link.retransmissions \
		gateway.queue.depth \
		gateway.decode.ns \
		link.radio.energy_j \
		fleet.patients.done \
		solver.solves \
		solver.warm_solves \
		solver.early_exits \
		solver.restarts \
		solver.warm_resets \
		solver.iters 2>"$WORK/check.log"; then
		echo "telemetry_smoke: OK"
		exit 0
	fi
	kill -0 "$SIM_PID" 2>/dev/null || { echo "telemetry_smoke: wbsn-sim exited before the endpoint passed its check" >&2; cat "$WORK/check.log" >&2; exit 1; }
	sleep 0.2
	i=$((i + 1))
done
echo "telemetry_smoke: endpoint never passed its check" >&2
cat "$WORK/check.log" >&2
exit 1
