#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload simon --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --out-dir "$out" "$@"
