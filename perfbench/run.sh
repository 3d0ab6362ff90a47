#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve-b1 --seed 1 --seconds 25 --trace 0
#
# Run from the root of a checkout. Build outputs, the Go build cache and
# trace files all stay under .bench_build/ in the checkout. Exits non-zero
# without a result when the repository sources are not beside the benchmark.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if ! grep -qs '^module repro$' go.mod || [ ! -d internal/protocol ]; then
	echo "perfbench: no repro sources at $root (need go.mod and internal/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
