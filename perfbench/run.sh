#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the given
# arguments. Run from the repository root. The Go build cache, temp files,
# GOPATH and the go command's config and telemetry directory all live under
# .bench_build/ too, so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
