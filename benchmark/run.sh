#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (see README.md). Everything the Go toolchain writes — build
# cache, temp files, telemetry — is kept under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -o "$build/spyker-benchmark" .
exec "$build/spyker-benchmark" "$@"
