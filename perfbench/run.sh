#!/usr/bin/env bash
# Builds the benchmark program from the sources in the current checkout and
# runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload encode-weights --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, result files and spans) stays under .bench_build/.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp" "$out/config"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/perfbench.bin" ./perfbench
exec "$out/perfbench.bin" -out "$out/results" "$@"
