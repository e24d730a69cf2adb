#!/usr/bin/env bash
# Builds the end-to-end compliance benchmark from source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pcap-media --seed 1 --seconds 20 --trace 0
#
# Every file it writes (Go build cache, binary, generated captures,
# trend store, span dumps) stays under .bench_build/ in the current
# directory. The benchmark module replaces the rtcc module with the
# checkout's root, so the build fails, and the script exits non-zero
# without printing a result, when the root holds no program source.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# The go command's cache, module path, temporary files, and user config
# (telemetry counters) all stay under $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/work" "$@"
