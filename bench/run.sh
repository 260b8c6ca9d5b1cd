#!/usr/bin/env bash
# Builds the benchmark inside bench/out and runs it with the given
# arguments. Everything the build and the run write stays under bench/out.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTMPDIR="$PWD/out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
# The go command keeps its telemetry counters in the user's config directory.
export XDG_CONFIG_HOME="$PWD/out/config"
go build -o out/bench .
exec out/bench "$@"
