package serve

import (
	"context"
	"strings"
	"testing"

	"pacstack/internal/fault"
)

// TestWarmGateFailureBranches drives the warm gate into the failure
// branches a config can reach. Its other criteria — graceful runs,
// cold/warm outcome parity, zero image-key violations, pool restores —
// hold by construction for every valid config.
func TestWarmGateFailureBranches(t *testing.T) {
	base := SoakConfig{
		Clients: 2, Requests: 4, Workload: "chain", Schemes: []string{"pacstack"},
		Seed: 7, ChaosRate: 0.1, Heal: 1, Workers: 4, Retries: 3, BreakerThreshold: 8,
	}
	for _, tc := range []struct {
		name, want string
		mod        func(*SoakConfig)
	}{
		// A long request amortizes the boot the pool saves: warm wins
		// far less than 10x.
		{"long-workload", "closed-loop warm/cold throughput", func(c *SoakConfig) { c.Workload = "nginx" }},
		// An unprotected return address lets a hijack finish silently.
		{"baseline", "silent corruption(s) under the warm pool", func(c *SoakConfig) {
			c.Schemes, c.Clients, c.Requests, c.Heal = []string{"baseline"}, 6, 12, 0
			c.ChaosRate, c.ChaosKinds = 1, []fault.Kind{fault.KindRetAddr}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mod(&cfg)
			g, err := WarmGate(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(strings.Join(g.Verdict, "\n"), tc.want) {
				t.Fatalf("want a %q failure, got %q", tc.want, g.Verdict)
			}
		})
	}
}
