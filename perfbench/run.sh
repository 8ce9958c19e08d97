#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload resweep|serve \
#        --seed N --seconds S --trace 0|1
#
# Builds ccrpaper, ccrd and the perfbench program from source into
# .bench_build/ (Go build cache and the go command's configuration and
# telemetry directory included, so nothing is written outside the
# checkout) and hands the arguments to perfbench, whose last stdout
# line is the JSON result. Exits non-zero without a result when the
# sources are missing or do not build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ccrpaper || ! -d cmd/ccrd ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ccrpaper, cmd/ccrd not found)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bin/" ./cmd/ccrpaper ./cmd/ccrd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work .bench_build/run "$@"
