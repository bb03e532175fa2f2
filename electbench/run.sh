#!/usr/bin/env bash
# Builds the election benchmark from this checkout's sources, then runs it:
#
#   bash electbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build reads and writes only under .bench_build/ at the checkout root
# (its own Go build cache, module path and config directory), so repeated
# runs reuse compiled packages and nothing outside the checkout is touched.
# A failed build exits non-zero before any measurement starts.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

gobin=go
if [[ -n "${GOROOT:-}" && -x "$GOROOT/bin/go" ]]; then
	gobin="$GOROOT/bin/go"
fi

(
	cd "$root/electbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off \
		"$gobin" build -o "$out/electbench" .
)

exec "$out/electbench" "$@"
