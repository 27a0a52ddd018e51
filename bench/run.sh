#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs
# it, passing every argument through. Everything the Go toolchain writes
# (build cache, module cache, temporary build files, its config) is kept under
# .bench_build/ so a run reads and writes only inside the checkout.
#
# The go command's telemetry is switched off first: with a fresh config
# directory it would otherwise start a detached uploader child on its
# first invocation, a process that outlives this script. No other
# process is started besides `go build` (waited for) and the harness
# (exec'd, so it is this process).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $PWD: the program to measure is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
