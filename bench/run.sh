#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload suite-cold --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary journals, span files) stays under .bench_build/ at the root
# of the checkout. The build needs the repository's own sources next to
# bench/, so a copy of bench/ alone fails here with a non-zero exit.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/home"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

(cd "$root/bench" && go build -buildvcs=false -o "$out/teabench" .)
exec "$out/teabench" "$@"
