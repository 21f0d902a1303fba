#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given flags. Everything the build writes (binary, Go build cache) stays
# under .bench_build at the checkout root, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off

# The module replaces repro with the parent directory, so this fails (and
# set -e exits non-zero) where the repository's sources are missing.
go build -C "$here" -o "$build/benchmark" .

cd "$root"
exec "$build/benchmark" "$@"
