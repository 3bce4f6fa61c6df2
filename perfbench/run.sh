#!/usr/bin/env bash
# Builds hotserve, hotforecast and the perfbench program from source into
# .bench_build/ at the repository root, then runs the benchmark:
#
#   bash perfbench/run.sh --workload serve-latest --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache included) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hotserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/ and perfbench/)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomod" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go build -o "$build/bin/" ./cmd/hotserve ./cmd/hotforecast
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
