#!/usr/bin/env bash
# Builds serfibench from this checkout and runs it with the given arguments.
# Run from the repository root:
#   bash serfibench/run.sh --workload reg-matrix --seed 1 --seconds 20 --trace 0
#   bash serfibench/run.sh --compare PARENT_DIR CHANGE_DIR
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/serfibench" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off \
	XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
(cd "$root/serfibench" && go build -o "$out/serfibench/serfibench" .)
exec "$out/serfibench/serfibench" "$@"
