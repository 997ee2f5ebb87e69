#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, git-ignored) and runs it from the repository root with the
# arguments given. The Go build and module caches are kept there too, so
# a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/tcq-benchmark" .)
cd "$root"
exec "$out/tcq-benchmark" "$@"
