#!/usr/bin/env bash
# Builds the harness from the checkout's source and runs it. Everything the
# build and the run write (Go build cache included) stays under
# ./.bench_build of the checkout this script is in.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/ecgate ] || [ ! -d cmd/ecstored ]; then
  echo "ecload: $(pwd) is not a checkout of the repo (need go.mod, cmd/ecgate, cmd/ecstored)" >&2
  exit 2
fi
b="$(pwd)/.bench_build"
mkdir -p "$b/bin" "$b/gotmp"
# XDG_CONFIG_HOME: the go command keeps its env file and telemetry counters there.
export GOCACHE="$b/gocache" GOTMPDIR="$b/gotmp" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config" \
  GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$b/bin/ecload" ./benchmarks/ecload
exec "$b/bin/ecload" -bin "$b/bin" "$@"
