#!/usr/bin/env bash
# Builds wanbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/wanbench/run.sh --workload live_sketch --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the go command's own config and telemetry files,
# the binary and the benchmark's scratch files all stay under
# .bench_build/ in the checkout. Outside a full checkout the build fails
# (the module replaces wantraffic with ../..), so the script exits
# non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -C cmd/wanbench -o "$out/wanbench" .
exec "$out/wanbench" "$@"
