#!/usr/bin/env bash
# Builds mmlpserve, mmlprouter and the benchmark from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload cold|warm|delta --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, fleet logs, span files) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mmlpserve" || ! -d "$root/cmd/mmlprouter" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ here)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/logs" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOTELEMETRY=off

go build -o "$out/bin/" ./cmd/mmlpserve ./cmd/mmlprouter
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -out "$out/logs" "$@"
