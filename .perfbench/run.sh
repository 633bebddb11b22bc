#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash .perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary data directories, results, spans) stays under
# .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

(cd "$root/.perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
