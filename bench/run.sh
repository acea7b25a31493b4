#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash bench/run.sh --workload write-durable --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go
# build cache, binary, engine data, span dumps) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd "$root/bench" && go build -o "$out/d2bench" .)
cd "$root"
exec "$out/d2bench" --out "$out" "$@"
