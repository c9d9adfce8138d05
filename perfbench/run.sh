#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload repro|mc_units|shard_campaign --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --compare BASE.jsonl HEAD.jsonl
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root (Go build cache, temp files, the binary, traces).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The Go command's cache, temporary files, module path and its config and
# telemetry directory (XDG_CONFIG_HOME) all stay inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" "$@"
