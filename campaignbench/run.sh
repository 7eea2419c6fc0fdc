#!/usr/bin/env bash
# Builds the campaign benchmark and cmd/dseserve from this checkout's
# sources, then runs one workload:
#
#   bash campaignbench/run.sh --workload served-campaign --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. The Go build cache, the binaries, the
# run's scratch stores and the trace files all stay under .bench_build/;
# nothing is fetched (GOPROXY=off): the benchmark needs only the
# standard library and this module.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dseserve" ]]; then
	echo "campaignbench: $root holds no slamgo checkout to build" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command keeps its settings and usage counters under the user
# config directory; point it into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default "local" mode) every go command may fork
# a detached telemetry process that outlives the build; turn it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

cd "$root"
go build -o "$out/bin/dseserve" ./cmd/dseserve
(cd "$root/campaignbench" && go build -o "$out/bin/campaignbench" .)
exec "$out/bin/campaignbench" --root "$root" "$@"
