#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload cache_read --seed 1 --seconds 40 --trace 0
#
# Every file it writes — the Go build cache, the binary, the store's files
# and trace output — stays under $CARGO_TARGET_DIR (default .bench_build)
# in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
