package des_test

import (
	"testing"

	"pacstack/internal/des"
	"pacstack/internal/traffic"
)

// BenchmarkReplay times the serial replay alone: the burst scenario's
// arrival stream over three backends with synthetic outcomes, so no
// request executes and nothing is precomputed. events/s counts one
// event per issue, retry, shed and terminal state.
func BenchmarkReplay(b *testing.B) {
	model := traffic.BurstScenario(42)
	arrivals, err := model.Generate()
	if err != nil {
		b.Fatal(err)
	}
	out := make([]des.Outcome, len(arrivals))
	for id := range out {
		out[id].Cycles = 2_000 + uint64(id*7_919%30_000)
		if id%50 == 0 {
			out[id].Class = des.Detected
		}
	}
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := des.OpenLoop(42, arrivals, traffic.NewEvaluator(model.Classes, nil), 2_000, 64_000)
		sim := des.New(src, out, 3, 4, 8, 4)
		sim.Overhead, sim.Retries = 500, 3
		sim.Hooks.Route = func(id, _ int) int { return id % 3 }
		sim.Start()
		sim.Run()
		t := sim.Totals
		events += t.Issued + t.Retries + t.Sheds + t.Terminal()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
