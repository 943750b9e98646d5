#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it.
# Every build product, the durable sites and the span file stay under
# .bench_build at the checkout root.
#
#   bash servebench/run.sh --workload browse --seed 1 --seconds 12 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -state "$out" "$@"
