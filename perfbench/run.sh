#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload fig3-mimd --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and output stays under .bench_build/ at the
# root of the checkout. The build fails, and the script exits nonzero
# without printing a result, when the repository's sources are not there.
set -euo pipefail
# Every pass runs the Go runtime's defaults, as a millid daemon does.
unset GOGC GOMEMLIMIT GODEBUG
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -workdir "$build/perfbench-out" "$@"
