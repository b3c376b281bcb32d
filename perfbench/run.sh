#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see perfbench/README.md).
# The Go build cache, temporary files and the binary stay under the
# build directory inside the checkout ($CARGO_TARGET_DIR, default
# .bench_build), so the run reads and writes nothing outside it.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
  exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
