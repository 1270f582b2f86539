#!/usr/bin/env bash
# Builds the what-if serving benchmark from the source of the checkout it
# is run in, then runs it with the given arguments. Run from the
# repository root:
#
#   bash whatifbench/run.sh --workload dashboard --seed 1 --seconds 12 --trace 0
#
# Build cache, temporary files, spill files and span output all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/whatifbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# The go command's config directory (env file, telemetry counters) is
# redirected too, so the build writes nothing outside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/whatifbench" && go build -o "$out/whatifbench" .)
exec "$out/whatifbench" "$@"
