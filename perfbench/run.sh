#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes stays under .bench_build in the current
# directory, including the Go build cache. The first run compiles from
# source; later runs reuse the cache.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$out/bin"
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
