#!/usr/bin/env bash
# Builds dresar-bench from the checkout this script lives in and runs it
# from the checkout root with the given arguments, e.g.
#
#   bash bench/run.sh --workload sweep16 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare results/parent results/change
#
# Everything the build and the runs write (binary, Go build cache,
# profiles, the serving workload's temporary result cache) stays in
# .bench_build/ at the checkout root. The toolchain is pinned to the
# local one and module downloads are off: the benchmark needs nothing
# beyond this checkout and the standard library.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/dresar-bench" .)
cd "$root"
exec "$build/dresar-bench" "$@"
