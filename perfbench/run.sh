#!/bin/sh
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, from the repository root. Every build artifact, cache
# and temporary file stays under .bench_build/ in the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
cd "$root"
exec "$build/bin/perfbench" "$@"
