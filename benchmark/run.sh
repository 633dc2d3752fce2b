#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run it
# from the repository root; every argument passes through:
#
#   bash benchmark/run.sh --workload dc-1k --seed 1 --seconds 20 --trace 0
#
# The build and its caches live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is read or written outside the checkout. Traced
# runs write their spans there too.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-build GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/hyscale-benchmark" .) >&2
exec "$out/hyscale-benchmark" -spans-dir "$out/spans" "$@"
