#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload go-types-cs --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, the go command's own config and
# telemetry files, and the binary stay under .bench_build/ in the
# checkout. The analysed inputs are read from the installed Go
# toolchain's source tree (GOROOT/src), pinned by
# perfbench/expected.json.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
GOROOT=$(go env GOROOT)
export GOROOT
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
