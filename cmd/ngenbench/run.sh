#!/usr/bin/env bash
# Builds ngenbench from this checkout's sources and runs it with the
# given flags, from the repository root. Everything the build and the
# run write (Go build cache, binary, native plugins, job stores) stays
# under .bench_build/ at the root; no network is used.
#
#   bash cmd/ngenbench/run.sh --workload mmm --seed 1 --seconds 20 --trace 0
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/ngenbench" .)
cd "$root"
exec "$out/ngenbench" "$@"
