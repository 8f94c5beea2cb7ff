#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build output, cache, record and
# trace stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Go's telemetry and env files live under XDG_CONFIG_HOME; no module is
# ever downloaded (the benchmark depends only on the repository).
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The benchmark module builds against the repository one level up; in a
# directory without the repository sources the build fails and nothing
# is printed on standard output.
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out" "$@"
