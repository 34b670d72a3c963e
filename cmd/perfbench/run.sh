#!/usr/bin/env bash
# Builds the benchmark and the served binaries (dsmserved, dsmworker)
# from the checkout it is run in, then runs one workload:
#
#   bash cmd/perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Everything it builds or writes stays
# under .bench_build/ in that checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/dsmserved ./cmd/dsmworker >&2
(cd cmd/perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
