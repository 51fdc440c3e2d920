#!/bin/sh
# Repository gate: everything must build, pass vet, pass the full test
# suite with the race detector on (which includes the serial-vs-
# parallel determinism tests), and keep every benchmark runnable so
# the perf trajectory (bench.sh / BENCH_*.json) cannot rot.
set -eux
cd "$(dirname "$0")"
go build ./...
go vet ./...
go test -race ./...
go test -run=NONE -bench=. -benchtime=1x ./...

# Trace-compilation gate: the block-compiled engine must be observably
# identical to the single-step oracle — the cpu differential suite
# (every exit shape, invalidation edge, armed-hook and traced
# fallback) plus the root suites DeepEqual'd across both engines, all
# under the race detector, then a one-iteration smoke of the block
# engine's headline benchmark so BenchmarkEngine cannot rot.
go test -race -run 'TestBlock|TestSetRegsForcesXZRSlot' ./internal/cpu
go test -race -run 'BlockEngineDeterminism' .
go test -run=NONE -bench '^BenchmarkEngine$' -benchtime=1x .

# Every soak and cluster run below is also cmp'd against its committed
# golden under testdata/golden (TestGolden pins the same files from the
# library side; these cmps pin the CLIs' flag-to-config path). A golden
# diff is a behaviour change: regenerate with `go test -run TestGolden
# -update .` only when the change is intended, and explain it.
G=testdata/golden

# Seeded chaos-soak smoke: a few seconds of virtual-time traffic with
# ~10% fault injection against the serving layer, race detector on.
# -check fails the gate on any silent corruption or a non-graceful end
# (a request that never reached a terminal state); the double run plus
# cmp enforces the byte-identical-report reproducibility criterion.
SOAK_FLAGS="-clients 6 -requests 12 -seed 7 -chaos-rate 0.1 -heal 1"
go run -race ./cmd/pacstack-soak $SOAK_FLAGS -check -telemetry-dump /tmp/pacstack-tel-a.json > /tmp/pacstack-soak-a.txt
go run -race ./cmd/pacstack-soak $SOAK_FLAGS -check -telemetry-dump /tmp/pacstack-tel-b.json > /tmp/pacstack-soak-b.txt
cmp /tmp/pacstack-soak-a.txt /tmp/pacstack-soak-b.txt
# Telemetry determinism: the same double run must emit byte-identical
# metrics + security-event dumps — counters from the parallel phase
# commute, events come only from the serial virtual-time replay, and
# the injected clock keeps wall time out of both.
cmp /tmp/pacstack-tel-a.json /tmp/pacstack-tel-b.json
cmp /tmp/pacstack-soak-a.txt $G/soak-chaos.txt
cmp /tmp/pacstack-tel-a.json $G/soak-chaos.telemetry.json
rm -f /tmp/pacstack-soak-a.txt /tmp/pacstack-soak-b.txt /tmp/pacstack-tel-a.json /tmp/pacstack-tel-b.json

# Crash-consistency gate: the torn-write crash matrix (every commit-
# protocol offset x 8 seeds, plus seeded bit rot / truncation /
# duplicate-rename faults). The binary exits non-zero on any silent
# restore, replay divergence, or recovery panic; the double run plus
# cmp enforces that the campaign itself is deterministic — including
# the store-telemetry dump embedded in the -json report.
go run -race ./cmd/pacstack-snap -crash-matrix -json > /tmp/pacstack-snap-a.json
go run -race ./cmd/pacstack-snap -crash-matrix -json > /tmp/pacstack-snap-b.json
cmp /tmp/pacstack-snap-a.json /tmp/pacstack-snap-b.json
rm -f /tmp/pacstack-snap-a.json /tmp/pacstack-snap-b.json

# Cluster failover smoke: a 3-backend fleet loses one backend mid-soak
# (seeded victim at virtual cycle 40000); its machines migrate over the
# snap codec with re-seeded keys and its in-flight requests replay
# exactly once. -check exits non-zero unless every request reached a
# terminal state with zero silent losses, zero shared-key violations,
# zero double replays, and the restart budget charged exactly once.
# The two runs differ only in precompute pool width (-par 1 vs 8); cmp
# on the JSON report and the telemetry dump enforces that the report
# is a pure function of the seed, independent of parallelism.
CLUSTER_FLAGS="-backends 3 -clients 6 -requests 10 -seed 11 -chaos-rate 0.1 -heal 1 -kill-at 40000"
go run -race ./cmd/pacstack-cluster $CLUSTER_FLAGS -par 1 -check -json -telemetry-dump /tmp/pacstack-cluster-tel-a.json > /tmp/pacstack-cluster-a.json
go run -race ./cmd/pacstack-cluster $CLUSTER_FLAGS -par 8 -check -json -telemetry-dump /tmp/pacstack-cluster-tel-b.json > /tmp/pacstack-cluster-b.json
cmp /tmp/pacstack-cluster-a.json /tmp/pacstack-cluster-b.json
cmp /tmp/pacstack-cluster-tel-a.json /tmp/pacstack-cluster-tel-b.json
cmp /tmp/pacstack-cluster-a.json $G/cluster-kill.json
cmp /tmp/pacstack-cluster-tel-a.json $G/cluster-kill.telemetry.json
rm -f /tmp/pacstack-cluster-a.json /tmp/pacstack-cluster-b.json \
      /tmp/pacstack-cluster-tel-a.json /tmp/pacstack-cluster-tel-b.json

# Cascading-failure smoke: the fleet loses two backends (seeded
# victims) with -failover-budget 2 — both kills must be absorbed, each
# charging the budget once, each dead backend's machines migrated and
# its orphans replayed exactly once. Same -par 1 vs 8 cmp as above.
CASCADE_FLAGS="-backends 3 -clients 6 -requests 10 -seed 11 -chaos-rate 0.1 -heal 1 -kill-at 40000,60000 -failover-budget 2"
go run -race ./cmd/pacstack-cluster $CASCADE_FLAGS -par 1 -check -json > /tmp/pacstack-cascade-a.json
go run -race ./cmd/pacstack-cluster $CASCADE_FLAGS -par 8 -check -json > /tmp/pacstack-cascade-b.json
cmp /tmp/pacstack-cascade-a.json /tmp/pacstack-cascade-b.json
cmp /tmp/pacstack-cascade-a.json $G/cluster-cascade.json
rm -f /tmp/pacstack-cascade-a.json /tmp/pacstack-cascade-b.json

# Heavy-tail traffic + SLO smoke: the open-loop burst scenario under
# adaptive admission. The two runs differ only in precompute width
# (-par 1 vs 8); cmp on the SLO report and the telemetry dump enforces
# that SLO evaluation is a pure function of the seed.
TRAFFIC_FLAGS="-traffic burst -seed 42 -workers 4 -cores 32 -chaos-rate 0.02 -heal 1 -adaptive"
go run -race ./cmd/pacstack-soak $TRAFFIC_FLAGS -par 1 -check -slo-report /tmp/pacstack-slo-a.json -telemetry-dump /tmp/pacstack-traffic-tel-a.json > /tmp/pacstack-traffic-a.txt
go run -race ./cmd/pacstack-soak $TRAFFIC_FLAGS -par 8 -check -slo-report /tmp/pacstack-slo-b.json -telemetry-dump /tmp/pacstack-traffic-tel-b.json > /tmp/pacstack-traffic-b.txt
cmp /tmp/pacstack-traffic-a.txt /tmp/pacstack-traffic-b.txt
cmp /tmp/pacstack-slo-a.json /tmp/pacstack-slo-b.json
cmp /tmp/pacstack-traffic-tel-a.json /tmp/pacstack-traffic-tel-b.json
cmp /tmp/pacstack-traffic-a.txt $G/soak-burst.txt
cmp /tmp/pacstack-slo-a.json $G/soak-burst.slo.json
cmp /tmp/pacstack-traffic-tel-a.json $G/soak-burst.telemetry.json
rm -f /tmp/pacstack-traffic-a.txt /tmp/pacstack-traffic-b.txt \
      /tmp/pacstack-slo-a.json /tmp/pacstack-slo-b.json \
      /tmp/pacstack-traffic-tel-a.json /tmp/pacstack-traffic-tel-b.json

# Overload-control gate: the canned 10x burst must break static
# admission (shed/error budgets blown) while the AIMD-resized pool
# holds every class SLO — non-zero exit unless both halves hold, so
# neither a toothless scenario nor a regressed controller can pass.
# Its stdout (both rendered reports) is cmp'd against the golden.
go run -race ./cmd/pacstack-soak -traffic-gate -seed 42 -workers 4 -cores 32 -chaos-rate 0.02 -heal 1 > /tmp/pacstack-traffic-gate.txt
cmp /tmp/pacstack-traffic-gate.txt $G/soak-traffic-gate.txt
rm -f /tmp/pacstack-traffic-gate.txt

# Chaos-mesh smoke: the canned gray-backend burst — one backend behind
# a slow, lossy, never-dead link — under the full resilience stack
# (hedged requests, cluster-global retry budget, outlier ejection,
# priority brownout). The two runs differ only in precompute width
# (-par 1 vs 8); cmp on the rendered report, the SLO report, and the
# telemetry dump enforces that the fault mesh and every defense layer
# replay as pure functions of the seed.
MESH_FLAGS="-traffic burst -seed 42 -backends 3 -workers 4 -cores 4 -queue 8 -chaos-rate 0.02 -heal 1 -mesh-gray 0 -resilient"
go run -race ./cmd/pacstack-cluster $MESH_FLAGS -par 1 -check -slo-report /tmp/pacstack-mesh-slo-a.json -telemetry-dump /tmp/pacstack-mesh-tel-a.json > /tmp/pacstack-mesh-a.txt
go run -race ./cmd/pacstack-cluster $MESH_FLAGS -par 8 -check -slo-report /tmp/pacstack-mesh-slo-b.json -telemetry-dump /tmp/pacstack-mesh-tel-b.json > /tmp/pacstack-mesh-b.txt
cmp /tmp/pacstack-mesh-a.txt /tmp/pacstack-mesh-b.txt
cmp /tmp/pacstack-mesh-slo-a.json /tmp/pacstack-mesh-slo-b.json
cmp /tmp/pacstack-mesh-tel-a.json /tmp/pacstack-mesh-tel-b.json
cmp /tmp/pacstack-mesh-a.txt $G/cluster-mesh.txt
cmp /tmp/pacstack-mesh-slo-a.json $G/cluster-mesh.slo.json
cmp /tmp/pacstack-mesh-tel-a.json $G/cluster-mesh.telemetry.json
rm -f /tmp/pacstack-mesh-a.txt /tmp/pacstack-mesh-b.txt \
      /tmp/pacstack-mesh-slo-a.json /tmp/pacstack-mesh-slo-b.json \
      /tmp/pacstack-mesh-tel-a.json /tmp/pacstack-mesh-tel-b.json

# Chaos-mesh gate: the same scenario naive vs resilient — non-zero
# exit unless the naive fleet demonstrably blows at least one class
# SLO behind the gray link, the resilient fleet holds every class
# through the same faults (zero hedge key-sharing violations, per
# PACStack §4.3 key independence), and its secondaries stayed inside
# the configured retry budget. Its stdout is cmp'd against the golden.
go run -race ./cmd/pacstack-cluster -mesh-gate -seed 42 > /tmp/pacstack-mesh-gate.txt
cmp /tmp/pacstack-mesh-gate.txt $G/cluster-mesh-gate.txt
rm -f /tmp/pacstack-mesh-gate.txt

# Warm-pool determinism: the same soak served from the snapshot-fork
# pools (-boot-model warm: every request leases a pooled machine,
# restores it from the in-memory boot image and re-seeds its PA keys)
# must stay a pure function of the seed. The two runs differ only in
# precompute pool width (-par 1 vs 8); cmp on the rendered report and
# the telemetry dump — which includes pacstack_pool_restores_total and
# friends — enforces that pool serving leaks no scheduling into either.
go run -race ./cmd/pacstack-soak $SOAK_FLAGS -boot-model warm -par 1 -check -telemetry-dump /tmp/pacstack-warm-tel-a.json > /tmp/pacstack-warm-a.txt
go run -race ./cmd/pacstack-soak $SOAK_FLAGS -boot-model warm -par 8 -check -telemetry-dump /tmp/pacstack-warm-tel-b.json > /tmp/pacstack-warm-b.txt
cmp /tmp/pacstack-warm-a.txt /tmp/pacstack-warm-b.txt
cmp /tmp/pacstack-warm-tel-a.json /tmp/pacstack-warm-tel-b.json
cmp /tmp/pacstack-warm-a.txt $G/soak-warm.txt
cmp /tmp/pacstack-warm-tel-a.json $G/soak-warm.telemetry.json
rm -f /tmp/pacstack-warm-a.txt /tmp/pacstack-warm-b.txt \
      /tmp/pacstack-warm-tel-a.json /tmp/pacstack-warm-tel-b.json

# Warm-pool gate: cold-model vs warm-model at one seed — non-zero exit
# unless the closed-loop halves agree EXACTLY on every outcome count
# (the §4.3 draw-parity property measured end to end) with warm goodput
# >= 10x cold, the boot-dominated open-loop half clears 20x, both warm
# halves actually served from the pools, and zero image-key
# violations were recorded anywhere. Its stdout (the two ratio lines)
# is cmp'd against the golden.
go run -race ./cmd/pacstack-soak -warm-gate $SOAK_FLAGS > /tmp/pacstack-warm-gate.txt
cmp /tmp/pacstack-warm-gate.txt $G/soak-warm-gate.txt
rm -f /tmp/pacstack-warm-gate.txt
