#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload flat-floor --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, trace files) stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the simulator's sources are not here" >&2
	exit 2
fi
command -v go >/dev/null || { echo "perfbench: the go toolchain is not on PATH" >&2; exit 2; }

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS= GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
