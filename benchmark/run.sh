#!/usr/bin/env bash
# Builds the benchmark runner from the checkout it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload ior-1080 --seed 1 --seconds 12 --trace 0
#
# The go command's build cache, module cache, configuration and telemetry
# all live under .bench_build/ in the checkout, and nothing is fetched: the
# benchmark module imports mcio through a directory replacement and needs
# nothing else. The commit is stamped only when the checkout itself is a
# git work tree.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
go -C "$root/benchmark" build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$build/mcio-bench" .
exec "$build/mcio-bench" "$@"
