#!/usr/bin/env bash
# Builds the benchmark and cmd/clsm-server from this checkout, then runs one
# workload. Run from the root of the repository:
#
#   bash benchmark/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the compiler's scratch files, temporary
# stores and trace files all go under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work/gotmp" "$work/tmp"

export GOCACHE=$work/gocache GOTMPDIR=$work/gotmp TMPDIR=$work/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$work/clsm-server" ./cmd/clsm-server
go -C benchmark build -o "$work/clsmbench" .
exec "$work/clsmbench" -work "$work" "$@"
