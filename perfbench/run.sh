#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload track-arm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, its config and telemetry directory) stays
# under .bench_build/ in the checkout, and the toolchain never reaches
# the network: the module has no external dependencies.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
go -C perfbench build -trimpath -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
