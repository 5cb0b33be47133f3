#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash benchmark/run.sh --workload fleet-cs-lossy --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) goes under
# .bench_build/ in the repository root, so the run reads and writes
# nothing outside the checkout besides the Go toolchain itself.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: program sources not found; run from the repository root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS="" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/benchmark" build -buildvcs=false -o "$out/wbsnbench" .
exec "$out/wbsnbench" "$@"
