package main

import (
	"fmt"

	"pacstack/internal/telemetry"
)

// endToEnd is one untraced run's samples.
type endToEnd struct {
	op    string    // the unit of work: request, regeneration, DES event
	rates []float64 // ops per wall second, one sample per window or op
	mips  []float64 // simulated MIPS, sampled like rates
	latUS []float64 // wall microseconds per request, regeneration or soak
	// tailUS, when set, holds per-window tail latencies; the reported
	// tail is their median, which one stalled window cannot move.
	tailUS []float64
	setup  float64 // median set-up seconds
	setups int     // set-ups the median is over
	rss    float64 // peak resident MiB
	// aliases names rates, the latency median and the latency tail the
	// way the issue tracker does (serve_rps, table2_s, des_events_s...).
	aliases [3]string
}

// endToEnd reports the end-to-end metrics every workload shares.
func (r *runner) endToEnd(e endToEnd) {
	q := tailQ(len(e.latUS))
	p50 := median(e.latUS)
	tail := quantile(e.latUS, q)
	tailHow := fmt.Sprintf("p%.4g of %d samples", 100*q, len(e.latUS))
	if e.tailUS != nil {
		tail = median(e.tailUS)
		tailHow = fmt.Sprintf("median of %d per-window p99s over %d samples", len(e.tailUS), len(e.latUS))
	}
	r.put("ops_per_s", median(e.rates), "1/s")
	r.put("latency_p50_ms", p50/1e3, "ms")
	r.put("latency_tail_ms", tail/1e3, "ms")
	r.put("sim_mips", median(e.mips), "MIPS")
	r.put("setup_s", e.setup, "s")
	r.note("ops_per_s counts %ss: %s = %.6g /s (median of %d samples, IQR %.1f%% of median)",
		e.op, e.aliases[0], median(e.rates), len(e.rates), 100*spread(e.rates))
	r.note("%s = %.6g us, %s = %.6g us (%s)", e.aliases[1], p50, e.aliases[2], tail, tailHow)
	r.note("sim_mips = %.6g (IQR %.1f%%); setup_s = %.6g (median of %d)", median(e.mips), 100*spread(e.mips), e.setup, e.setups)
	r.note("rss_peak_mb = %.6g MiB (peak resident set; printed, not a JSON metric: GC pacing moves it ±25%% run to run)", e.rss)
}

// traceOverhead reports how much slower traced runs went than
// untraced ones, from (untraced, traced) rate pairs measured back to
// back: the median per-pair slowdown as a percentage.
func (r *runner) traceOverhead(pairs [][2]float64) {
	var pct, plain, traced []float64
	for _, p := range pairs {
		pct = append(pct, 100*ratio(p[0]-p[1], p[0]))
		plain = append(plain, p[0])
		traced = append(traced, p[1])
	}
	r.put("trace.overhead_pct", median(pct), "%")
	r.note("tracing overhead %.2f%% (median of %d back-to-back pairs; untraced %.6g /s, traced %.6g /s)",
		median(pct), len(pairs), median(plain), median(traced))
}

// countMetrics are the per-layer counts and ratios read from the
// program's telemetry registry, plus the replay share of a soak. A
// workload that never runs a layer reports 0 for it.
var countMetrics = []struct{ name, unit string }{
	{"pa.memo_hit_ratio", "ratio"},
	{"kernel.instrs_per_req", "count"},
	{"pool.restores_per_req", "ratio"},
	{"pool.cold_fallbacks", "count"},
	{"pool.key_violations", "count"},
	{"supervise.attempts_per_req", "ratio"},
	{"telemetry.events_per_soak", "count"},
	{"cluster.hedges_per_req", "ratio"},
	{"des.replay_s", "s"},
}

// zeroCounts presets every count so a traced run always reports the
// full per-layer set.
func (r *runner) zeroCounts() {
	for _, c := range countMetrics {
		r.put(c.name, 0, c.unit)
	}
}

// servingCounts reads the serving-path counts from a registry the
// serving layer (serve.Config, serve.SoakConfig or cluster.SoakConfig)
// wrote to.
func (r *runner) servingCounts(snap telemetry.MetricsSnapshot) {
	r.zeroCounts()
	reqs := float64(counterSum(snap, "pacstack_serve_requests_total"))
	hits := float64(counterSum(snap, "pacstack_pa_memo_hits_total"))
	misses := float64(counterSum(snap, "pacstack_pa_memo_misses_total"))
	restarts := float64(counterSum(snap, "pacstack_supervise_restarts_total"))
	violations := counterSum(snap, "pacstack_pool_key_violations_total")
	r.put("pa.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.put("kernel.instrs_per_req", ratio(float64(counterSum(snap, "pacstack_kernel_instrs_total")), reqs), "count")
	r.put("pool.restores_per_req", ratio(float64(counterSum(snap, "pacstack_pool_restores_total")), reqs), "ratio")
	r.put("pool.cold_fallbacks", float64(counterSum(snap, "pacstack_pool_cold_fallback_total")), "count")
	r.put("pool.key_violations", float64(violations), "count")
	r.put("supervise.attempts_per_req", ratio(reqs+restarts, reqs), "ratio")
	r.check(violations == 0, "%d pool key violations", violations)
	r.check(gaugeSum(snap, "pacstack_pool_occupancy") == 0, "pool machines still leased after the run")
}
