#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root and runs it with the arguments given. Go's build cache, module
# path and temporary files are kept inside the checkout too, so a run
# reads and writes nothing outside it and needs no $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/evedge-bench" .)
cd "$root"
exec "$build/evedge-bench" "$@"
