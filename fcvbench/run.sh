#!/usr/bin/env bash
# Builds fcvbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash fcvbench/run.sh --workload cold_corpus --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ at the checkout
# root. A directory without the repository's sources fails the build,
# and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/fcvbench" && go build -o "$out/fcvbench" .)
cd "$root"
exec "$out/fcvbench" "$@"
