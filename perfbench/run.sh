#!/usr/bin/env bash
# Builds the time-to-PMF benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, spans, state
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
