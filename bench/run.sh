#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it. Everything the
# build and the run write stays inside the checkout: the Go build cache,
# the go command's own state (GOPATH, telemetry counters under
# XDG_CONFIG_HOME) and the binary under .bench_build/, traces and site
# data under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$here" -o "$build/fedbench" .
cd "$here"
exec "$build/fedbench" "$@"
