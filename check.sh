#!/bin/sh
# Repository gate: every Go file must be gofmt-clean, and everything
# must build, pass vet, pass the full test suite with the race detector
# on, and keep every benchmark runnable so the perf trajectory
# (bench.sh / BENCH_*.json) cannot rot.
#
# The suite carries every end-to-end gate in process: TestGolden runs
# each named scenario (internal/harness.Scenarios: the soaks, the
# traffic, warm-pool and chaos-mesh gates, the snapshot crash matrix)
# at precompute widths 1 and 8, applies its acceptance check and
# compares every artifact to testdata/golden; the block-engine
# differential suites and BlockEngineDeterminism hold the trace-
# compiled engine to the single-step oracle.
set -eux
cd "$(dirname "$0")"
test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go test -race ./...
go test -run=NONE -bench=. -benchtime=1x ./...
