#!/usr/bin/env bash
# Builds the benchmark and the mpxd daemon from source, then runs the
# benchmark with the given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload build-miss --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout;
# CARGO_TARGET_DIR, when set, names that directory instead (relative to
# the checkout root unless absolute).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mpxd" ]]; then
	echo "perfbench: run from the root of a checkout of the mpx module" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/mpxd" mpx/cmd/mpxd >&2
cd "$root"
exec "$out/perfbench" --mpxd "$out/mpxd" --work "$out/work" "$@"
