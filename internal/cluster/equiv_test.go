package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pacstack/internal/serve"
	"pacstack/internal/traffic"
)

// TestOneBackendFleetEqualsServeSoak: a one-backend, breaker-off,
// mesh-free cluster soak is the serving tier's soak — the same replay
// under a trivial router — so every outcome count and the virtual
// clock must agree exactly, closed loop (with and without chaos, and
// under pressure that sheds and retries) and open loop.
func TestOneBackendFleetEqualsServeSoak(t *testing.T) {
	type pair struct {
		name string
		s    serve.SoakConfig
	}
	var cases []pair
	for _, seed := range []int64{1, 7, 11, 42} {
		for _, chaos := range []float64{0, 0.1} {
			cases = append(cases, pair{fmt.Sprintf("closed/seed%d/chaos%v", seed, chaos), serve.SoakConfig{
				Clients: 6, Requests: 12, Seed: seed, ChaosRate: chaos, Heal: 1, Workers: 2,
			}})
		}
	}
	cases = append(cases, pair{"closed/pressured", serve.SoakConfig{
		Clients: 8, Requests: 6, Seed: 23, ChaosRate: 0.1, Workers: 1, Queue: -1, Think: 1, Retries: 2,
	}})
	for _, seed := range []int64{3, 42} {
		model := traffic.BurstScenario(seed)
		cases = append(cases, pair{fmt.Sprintf("open/burst%d", seed), serve.SoakConfig{
			Seed: seed, Traffic: &model, Workers: 4, Cores: 32, ChaosRate: 0.02, Heal: 1,
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.s.BreakerThreshold = -1
			want, err := serve.Soak(context.Background(), c.s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Soak(context.Background(), SoakConfig{SoakConfig: c.s, Backends: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Totals, want.Totals) || got.VirtualCycles != want.VirtualCycles {
				t.Fatalf("fleet of one diverged from the serve soak:\ncluster %+v @%d\nserve   %+v @%d",
					got.Totals, got.VirtualCycles, want.Totals, want.VirtualCycles)
			}
			if want.Issued == 0 || (c.name == "closed/pressured" && (want.Sheds == 0 || want.Retries == 0)) {
				t.Fatalf("vacuous comparison: %+v", want.Totals)
			}
		})
	}
}
