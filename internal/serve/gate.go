package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pacstack/internal/traffic"
)

// Verdict is an acceptance gate's ruling: the criteria that failed, in
// check order. Empty means the gate passed.
type Verdict []string

// Pass reports whether every criterion held.
func (v Verdict) Pass() bool { return len(v) == 0 }

// Err is nil on pass, else one error naming every failed criterion.
func (v Verdict) Err() error {
	if v.Pass() {
		return nil
	}
	return errors.New(strings.Join(v, "; "))
}

// Failf records one failed criterion.
func (v *Verdict) Failf(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// WarmGateReport is the warm-pool gate's four runs and its ruling.
type WarmGateReport struct {
	ClosedCold  *SoakReport `json:"closed_cold"`
	ClosedWarm  *SoakReport `json:"closed_warm"`
	TrafficCold *SoakReport `json:"traffic_cold"`
	TrafficWarm *SoakReport `json:"traffic_warm"`
	// ClosedRatio and TrafficRatio are warm/cold requests per virtual
	// second for the closed-loop and the fork-server halves.
	ClosedRatio  float64 `json:"-"`
	TrafficRatio float64 `json:"-"`
	Verdict      Verdict `json:"-"`
}

// WarmGate grades the warm-pool subsystem against the cold-boot
// baseline at base's seed. Two comparisons:
//
//   - Closed loop, breakers and shedding disabled (retry dynamics
//     silenced so the DES terminals are a pure function of the
//     precomputed outcomes): the cold-model and warm-model runs must
//     agree EXACTLY on every outcome count — the draw-parity property,
//     measured end to end — with zero silent corruptions, and the warm
//     run must deliver at least 10x the cold requests/virtual-second.
//   - The boot-dominated open-loop scenario (traffic.ForkServerScenario):
//     short interactive requests offered far beyond cold capacity, where
//     warm must clear 20x cold goodput. Outcome equality is NOT asserted
//     here — under overload the two cost models legitimately shed
//     different arrivals.
//
// Both warm runs must finish with zero §4.3 image-key violations
// and must actually have exercised the pool (restores > 0).
func WarmGate(ctx context.Context, base SoakConfig) (*WarmGateReport, error) {
	closed := base
	closed.Traffic = nil
	closed.Adaptive = nil
	closed.BreakerThreshold = -1
	closed.Retries = -1 // nothing to retry once shedding is off; keep it inert
	if closed.Clients <= 0 {
		closed.Clients = 8
	}
	if closed.Queue < closed.Clients {
		closed.Queue = closed.Clients // at most Clients outstanding: never shed
	}
	open := base
	open.Adaptive = nil
	model := traffic.ForkServerScenario(base.Seed)
	open.Traffic = &model

	var reps [4]*SoakReport
	for i, cfg := range []SoakConfig{closed, closed, open, open} {
		cfg.BootModel = [2]string{"cold", "warm"}[i%2]
		rep, err := Soak(ctx, cfg)
		if err != nil {
			return nil, err
		}
		reps[i] = rep
	}
	cold, warm, tCold, tWarm := reps[0], reps[1], reps[2], reps[3]
	ratio := func(w, c uint64) float64 {
		if c == 0 {
			return 0
		}
		return float64(w) / float64(c)
	}
	g := &WarmGateReport{
		ClosedCold: cold, ClosedWarm: warm, TrafficCold: tCold, TrafficWarm: tWarm,
		ClosedRatio:  ratio(warm.RPVSMilli, cold.RPVSMilli),
		TrafficRatio: ratio(tWarm.RPVSMilli, tCold.RPVSMilli),
	}
	v := &g.Verdict
	if !cold.Graceful() || !warm.Graceful() || !tCold.Graceful() || !tWarm.Graceful() {
		v.Failf("a run was not graceful (closed cold %v warm %v, traffic cold %v warm %v)",
			cold.Graceful(), warm.Graceful(), tCold.Graceful(), tWarm.Graceful())
	}
	if cold.OK != warm.OK || cold.Detected != warm.Detected || cold.Silent != warm.Silent ||
		cold.GaveUp != warm.GaveUp || cold.Injected != warm.Injected {
		v.Failf("closed-loop outcomes diverged across boot models: cold ok/detected/silent/gave-up/injected %d/%d/%d/%d/%d, warm %d/%d/%d/%d/%d",
			cold.OK, cold.Detected, cold.Silent, cold.GaveUp, cold.Injected,
			warm.OK, warm.Detected, warm.Silent, warm.GaveUp, warm.Injected)
	}
	if warm.Silent != 0 {
		v.Failf("%d silent corruption(s) under the warm pool", warm.Silent)
	}
	if warm.PoolKeyViolations != 0 || tWarm.PoolKeyViolations != 0 {
		v.Failf("image-key violations: closed %d, traffic %d — a restore kept the snapshot's PA keys",
			warm.PoolKeyViolations, tWarm.PoolKeyViolations)
	}
	if warm.PoolRestores == 0 || tWarm.PoolRestores == 0 {
		v.Failf("a warm run served no pool restores (closed %d, traffic %d) — the pool was not exercised",
			warm.PoolRestores, tWarm.PoolRestores)
	}
	if g.ClosedRatio < 10 {
		v.Failf("closed-loop warm/cold throughput %.2fx, need >= 10x", g.ClosedRatio)
	}
	if g.TrafficRatio < 20 {
		v.Failf("fork-server traffic warm/cold throughput %.2fx, need >= 20x", g.TrafficRatio)
	}
	return g, nil
}

// TrafficGateReport is the overload-control gate's two runs and its
// ruling.
type TrafficGateReport struct {
	Static, Adaptive *SoakReport
	Verdict          Verdict
}

// TrafficGate runs cfg's traffic model twice — static admission
// (cfg.Adaptive dropped), then under cfg.Adaptive — and grades the
// pair. The overload-control criterion: the static run must
// demonstrably fail at least one class SLO, and the adaptive run must
// pass every one with a controller that actually grew the pool past
// cfg.Workers. A model too weak to hurt the static policy proves
// nothing, so that also fails the gate.
func TrafficGate(ctx context.Context, cfg SoakConfig) (*TrafficGateReport, error) {
	static := cfg
	static.Adaptive = nil
	g := &TrafficGateReport{}
	var err error
	if g.Static, err = Soak(ctx, static); err != nil {
		return nil, err
	}
	if g.Adaptive, err = Soak(ctx, cfg); err != nil {
		return nil, err
	}
	v := &g.Verdict
	if !g.Static.Graceful() || !g.Adaptive.Graceful() {
		v.Failf("a run was not graceful (static %v, adaptive %v)", g.Static.Graceful(), g.Adaptive.Graceful())
	}
	st, ad := g.Static.SLO, g.Adaptive.SLO
	if st == nil || ad == nil {
		v.Failf("missing SLO report")
		return g, nil
	}
	if st.Pass {
		v.Failf("static admission survived the burst — the scenario exercises nothing")
	}
	if !ad.Pass {
		v.Failf("adaptive admission out of SLO: %s", ad.Failures())
	}
	if c := ad.Controller; c == nil || c.LimitMax <= cfg.Workers {
		v.Failf("adaptive controller never grew the pool — the pass is not its doing")
	}
	return g, nil
}
