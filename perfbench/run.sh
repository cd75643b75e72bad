#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sweep|rsa|mitigation|service --seed N --seconds S --trace 0|1
#
# Build output, the Go build cache and run scratch all live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home" "$build/tmp"
(
	cd "$root/perfbench"
	env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off \
		HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" --work "$build" "$@"
