#!/usr/bin/env bash
# run.sh — build the cell-level benchmark from source and run it.
#
# Usage (from the repository root):
#   bash cellbench/run.sh --workload ft4-contra --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, Go config)
# stays under .bench_build/ in the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off GOENV=off
go build -C "$root/cellbench" -o "$out/cellbench" . >&2
exec "$out/cellbench" -root "$root" "$@"
