#!/bin/sh
# bench.sh — record one point of the performance trajectory.
#
# Writes BENCH_<n>.json (n = first unused index) with the headline
# numbers the perf PRs are tracked by:
#
#   engine_mips            simulated MIPS from BenchmarkEngine: raw
#                          execution-engine throughput on a PACStack-
#                          instrumented SPEC workload, telemetry
#                          detached (the Nop path)
#   engine_mips_telemetry  the same workload with the full live
#                          telemetry bundle wired (registry counters
#                          on every kernel hook plus chain counters
#                          in the authenticator)
#   telemetry_overhead     1 - engine_mips_telemetry/engine_mips: the
#                          fractional cost of running instrumented
#   table2_wall_seconds    wall time of one full Table 2 regeneration
#                          (every benchmark under every scheme), from
#                          BenchmarkTable2
#   serve_cold_rps         wall-clock requests/second through the
#                          serving layer booting a fresh machine per
#                          request (BenchmarkServeColdRPS)
#   serve_warm_rps         the same request stream served from the
#                          warm snapshot-fork pools
#                          (BenchmarkServeWarmRPS). Near-parity is
#                          expected here: the simulator's cold boot is
#                          already in-memory, so the wall-clock pair
#                          mostly measures pool bookkeeping overhead.
#   warm_rpvs_speedup_closed / warm_rpvs_speedup_traffic
#                          the virtual-time goodput ratios from the
#                          soak-warm-gate scenario, where machine
#                          acquisition is charged at the modeled
#                          cold-boot vs snapshot-restore cost — the
#                          architectural fork-server numbers
#
# Compare against the previous BENCH_*.json before and after touching
# the interpreter, the PA model, the telemetry hooks, or the
# experiment drivers.
#
# Usage: bench.sh "<note>" — the note is mandatory and lands in the
# JSON verbatim, so every trajectory point says what changed (BENCH_2
# shipped without one and the gap had to be reconstructed from git).
set -eu
cd "$(dirname "$0")"

if [ $# -lt 1 ] || [ -z "$1" ]; then
    echo "usage: $0 \"<note describing what this point measures>\"" >&2
    exit 2
fi
note=$1

n=0
while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done

# Engine benchmarks are ~2-3ms per iteration, so run many and let the
# harness average: on shared machines single-digit iteration counts
# showed ±25% CPU-steal noise, enough to invert the nop-vs-telemetry
# overhead sign. Table 2 is ~0.3-1s per iteration and stays at 3x.
out=$(go test -run=NONE -bench='^(BenchmarkEngine|BenchmarkEngineTelemetry)$' -benchtime=50x .)
out="$out
$(go test -run=NONE -bench='^BenchmarkTable2$' -benchtime=3x .)"
out="$out
$(go test -run=NONE -bench='^BenchmarkServe(Cold|Warm)RPS$' -benchtime=30x .)"
printf '%s\n' "$out"

gate=$(go run ./cmd/pacstack-soak -scenario soak-warm-gate 2>&1)
printf '%s\n' "$gate"

# Benchmark names carry a -GOMAXPROCS suffix (BenchmarkEngine-8), so
# anchor the plain-engine match on that dash to keep the Telemetry
# variant out of it.
mips=$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkEngine(-|$)/ {for (i = 1; i < NF; i++) if ($(i + 1) == "MIPS") v = $i} END {print v}')
tmips=$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkEngineTelemetry/ {for (i = 1; i < NF; i++) if ($(i + 1) == "MIPS") v = $i} END {print v}')
t2ns=$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkTable2/ {for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") v = $i} END {print v}')
crps=$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkServeColdRPS/ {for (i = 1; i < NF; i++) if ($(i + 1) == "req/s") v = $i} END {print v}')
wrps=$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkServeWarmRPS/ {for (i = 1; i < NF; i++) if ($(i + 1) == "req/s") v = $i} END {print v}')
closedx=$(printf '%s\n' "$gate" | sed -n 's/^closed loop:.*(\([0-9.]*\)x)$/\1/p')
trafficx=$(printf '%s\n' "$gate" | sed -n 's/^fork-server traffic:.*(\([0-9.]*\)x)$/\1/p')
[ -n "$mips" ] && [ -n "$tmips" ] && [ -n "$t2ns" ] && [ -n "$crps" ] && [ -n "$wrps" ] && [ -n "$closedx" ] && [ -n "$trafficx" ] || { echo "bench.sh: could not parse benchmark output" >&2; exit 1; }
t2s=$(awk "BEGIN {printf \"%.3f\", $t2ns / 1e9}")
overhead=$(awk "BEGIN {printf \"%.4f\", 1 - $tmips / $mips}")
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

cat > "BENCH_${n}.json" <<JSON
{
  "bench": ${n},
  "commit": "${commit}",
  "engine_mips": ${mips},
  "engine_mips_telemetry": ${tmips},
  "telemetry_overhead": ${overhead},
  "table2_wall_seconds": ${t2s},
  "serve_cold_rps": ${crps},
  "serve_warm_rps": ${wrps},
  "warm_rpvs_speedup_closed": ${closedx},
  "warm_rpvs_speedup_traffic": ${trafficx},
  "note": "${note}"
}
JSON
echo "wrote BENCH_${n}.json (engine ${mips} MIPS nop / ${tmips} MIPS telemetry, overhead ${overhead}, Table 2 in ${t2s}s, serve ${crps}/${wrps} req/s cold/warm, warm rpvs ${closedx}x closed ${trafficx}x traffic)"
