#!/usr/bin/env bash
# Builds mlbench from source into .bench_build/ (git-ignored) at the root of
# the checkout it is started from, then runs it with the given arguments.
# Everything the go tool writes (build cache, module cache, telemetry) is
# pointed inside .bench_build/ so a run leaves nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
# In a fresh config dir the go tool starts a detached telemetry child that
# outlives it; mode "off" stops that, so no process is left behind on any path.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f "$root/go.mod" ]; then
	echo "run.sh: no go.mod in $root: mlbench is built from the monetlite module" >&2
	exit 1
fi
go build -o "$build/mlbench" ./cmd/mlbench
exec "$build/mlbench" -home "$root/cmd/mlbench" "$@"
