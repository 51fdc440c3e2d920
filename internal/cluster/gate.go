// The canned mesh-gate scenario: one fleet, one gray backend, the
// heavy-tail burst traffic from the serving tier's overload gate —
// run twice. The naive run has the classical machinery only (router,
// breakers, client retries) and must demonstrably blow at least one
// class SLO: the gray link's added round trip sits at the web class's
// p99 target, so everything interactive routed through it without a
// hedge is a violation by construction. The resilient run adds the
// full chaos-mesh defense — hedged requests, the cluster-global retry
// budget, outlier ejection, priority brownout — and must hold every
// class SLO through the same faults, with retry amplification provably
// inside the configured budget. A gray link too weak to hurt the
// naive run proves nothing, so that also fails the gate.

package cluster

import (
	"context"

	"pacstack/internal/mesh"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/traffic"
)

// MeshGateConfig returns the canned gray-backend scenario for the
// given seed: the PR8 burst traffic model over a 3-backend fleet with
// backend 0 behind a mesh.Gray link. With resilient set it enables
// hedging, the retry budget, outlier ejection and priority brownout;
// without, the cluster faces the mesh naively.
func MeshGateConfig(seed int64, resilient bool) SoakConfig {
	model := traffic.BurstScenario(seed)
	cfg := SoakConfig{
		Backends:  3,
		Workers:   4,
		Queue:     8,
		Cores:     4,
		Seed:      seed,
		ChaosRate: 0.02,
		Heal:      1,
		Traffic:   &model,
		Mesh:      &mesh.Config{Links: map[int]mesh.LinkConfig{0: mesh.Gray()}},
	}
	if resilient {
		cfg.Hedge = &HedgeConfig{}
		// Secondaries (hedges + retries) capped at 30% of primaries
		// plus a 30-token burst — generous enough for the hedge rate a
		// single gray backend induces, tight enough that a retry storm
		// is provably impossible.
		cfg.RetryBudget = &resilience.RetryBudgetConfig{Num: 3, Den: 10, Burst: 30}
		// A gray backend should leave the candidate set fast (its
		// dilation EWMA is orders of magnitude over threshold) and
		// stay out long enough that re-sampling it costs little.
		cfg.Outlier = &OutlierConfig{MinSamples: 8, Cooldown: 2_000_000}
		// Brownout biased hot: under the burst the heavy low-priority
		// tiers carry ~90% of offered work, and shedding them early is
		// what keeps the interactive tier inside its p99.
		cfg.Brownout = &BrownoutConfig{BurnPermille: 150, DenyThreshold: 2}
	}
	return cfg
}

// MeshGateReport is the mesh gate's two runs and its ruling.
type MeshGateReport struct {
	Naive, Resilient *ClusterReport
	Verdict          serve.Verdict
}

// MeshGate runs cfg twice — naive (cfg with its chaos-mesh defense
// stripped: no hedging, retry budget, outlier ejection or brownout),
// then as given — and grades the pair: the naive fleet must blow at
// least one class SLO, and the resilient fleet must hold every class,
// pass Check, have hedged, with zero hedge key-sharing violations
// (PACStack §4.3 key independence) and its secondaries (hedges +
// retries) inside the retry-budget bound.
func MeshGate(ctx context.Context, cfg SoakConfig) (*MeshGateReport, error) {
	naive := cfg
	naive.Hedge, naive.RetryBudget, naive.Outlier, naive.Brownout = nil, nil, nil, nil
	g := &MeshGateReport{}
	var err error
	if g.Naive, err = Soak(ctx, naive); err != nil {
		return nil, err
	}
	if g.Resilient, err = Soak(ctx, cfg); err != nil {
		return nil, err
	}
	v, res := &g.Verdict, g.Resilient
	if !g.Naive.Graceful() || !res.Graceful() {
		v.Failf("a run was not graceful (naive %v, resilient %v)", g.Naive.Graceful(), res.Graceful())
	}
	if g.Naive.SLO == nil || res.SLO == nil {
		v.Failf("missing SLO report")
		return g, nil
	}
	if g.Naive.SLO.Pass {
		v.Failf("the naive fleet survived the gray backend — the scenario exercises nothing")
	}
	if !res.SLO.Pass {
		v.Failf("resilient fleet out of SLO: %s", res.SLO.Failures())
	}
	if err := res.Check(); err != nil {
		v.Failf("resilient acceptance: %v", err)
	}
	if res.Hedges == 0 {
		v.Failf("the resilient fleet never hedged — the pass is not its doing")
	}
	if res.HedgeKeyViolations > 0 {
		v.Failf("%d hedged pair(s) shared PA keys", res.HedgeKeyViolations)
	}
	if res.Budget == nil {
		v.Failf("resilient run carried no retry budget")
	} else if res.Budget.Granted > res.BudgetBound {
		v.Failf("retry amplification %d secondaries exceeds the budget bound %d", res.Budget.Granted, res.BudgetBound)
	}
	return g, nil
}
