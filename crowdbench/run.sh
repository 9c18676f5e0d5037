#!/usr/bin/env bash
# Builds crowdbench from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash crowdbench/run.sh --workload sl_ind10k --seed 1 --seconds 20 --trace 0
#
# The build, its Go caches and the traced pass's spans stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/crowdbench" && go build -o "$out/crowdbench" .)
exec "$out/crowdbench" "$@"
