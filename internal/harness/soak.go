package harness

import (
	"fmt"
	"strings"

	"pacstack/internal/des"
	"pacstack/internal/serve"
)

// Soak renders a chaos-soak report (internal/serve.Soak) as the
// deterministic end-of-run summary cmd/pacstack-soak prints. The text
// is a pure function of the report, so byte-identical reports render
// byte-identically — TestGolden pins it for the text scenarios.
func Soak(r *serve.SoakReport) string {
	var b strings.Builder
	if r.Traffic {
		b.WriteString("Traffic soak: seeded open-loop heavy-tail replay against the serving layer (internal/serve + internal/traffic)\n")
		fmt.Fprintf(&b, "seed %d | schemes %s | %d arrivals | chaos %.1f%% | heal %d\n",
			r.Seed, strings.Join(r.Schemes, ","), r.Issued, 100*r.ChaosRate, r.Heal)
	} else {
		b.WriteString("Chaos soak: seeded virtual-time traffic against the serving layer (internal/serve)\n")
		fmt.Fprintf(&b, "seed %d | workload %s | schemes %s | %d clients x %d requests | chaos %.1f%% | heal %d\n",
			r.Seed, r.Workload, strings.Join(r.Schemes, ","), r.Clients, r.PerClient, 100*r.ChaosRate, r.Heal)
	}

	schemeTable(&b, r.PerScheme, r.Totals)
	faultLines(&b, r.Totals)
	if len(r.BreakerOpens) > 0 {
		fmt.Fprintf(&b, "breaker opens: %s\n", counts(r.BreakerOpens))
	}

	fmt.Fprintf(&b, "virtual cycles %d | in flight at end %d\n", r.VirtualCycles, r.InFlightAtEnd)
	if r.BootModel != "" {
		fmt.Fprintf(&b, "boot model %s | %d.%03d requests/virtual-second\n",
			r.BootModel, r.RPVSMilli/1000, r.RPVSMilli%1000)
		if r.BootModel == "warm" {
			fmt.Fprintf(&b, "pool restores %d | cold fallbacks %d | key violations %d\n",
				r.PoolRestores, r.PoolColdFallbacks, r.PoolKeyViolations)
		}
	}
	if r.Graceful() {
		fmt.Fprintf(&b, "graceful: every request reached a terminal state (%d+%d+%d+%d = %d issued)\n",
			r.OK, r.Detected, r.Silent, r.GaveUp, r.Issued)
	} else {
		fmt.Fprintf(&b, "NOT GRACEFUL: ok+detected+silent+gave-up = %d of %d issued, %d in flight\n",
			r.Terminal(), r.Issued, r.InFlightAtEnd)
	}
	b.WriteString(SLO(r.SLO))
	return b.String()
}

// schemeTable writes the per-scheme outcome table with its totals row,
// as every soak report prints it.
func schemeTable(b *strings.Builder, rows []des.Row, t des.Totals) {
	fmt.Fprintf(b, "\n%-26s %9s %8s %8s %8s %8s %8s\n",
		"scheme", "requests", "ok", "healed", "detected", "silent", "gave-up")
	for _, row := range rows {
		fmt.Fprintf(b, "%-26s %9d %8d %8d %8d %8d %8d\n",
			row.Scheme, row.Requests, row.OK, row.Healed, row.Detected, row.Silent, row.GaveUp)
	}
	fmt.Fprintf(b, "%-26s %9d %8d %8d %8d %8d %8d\n",
		"total", t.Issued, t.OK, t.Healed, t.Detected, t.Silent, t.GaveUp)
}

// faultLines writes the injected-faults/retries/sheds line, the
// checkpoint line (when checkpointing ran) and the detections by cause
// (when any).
func faultLines(b *strings.Builder, t des.Totals) {
	fmt.Fprintf(b, "\ninjected faults %d | retries %d | sheds %d | breaker denied %d\n",
		t.Injected, t.Retries, t.Sheds, t.BreakerDenied)
	if t.Checkpoints > 0 || t.TornCommits > 0 || t.Restores > 0 {
		fmt.Fprintf(b, "checkpoints %d | warm restores %d | torn commits %d\n",
			t.Checkpoints, t.Restores, t.TornCommits)
	}
	if len(t.Causes) > 0 {
		fmt.Fprintf(b, "detections by cause: %s\n", counts(t.Causes))
	}
}

// counts renders name:count pairs, space-separated.
func counts(cs []des.SchemeCount) string {
	parts := make([]string, 0, len(cs))
	for _, c := range cs {
		parts = append(parts, fmt.Sprintf("%s:%d", c.Scheme, c.Count))
	}
	return strings.Join(parts, " ")
}
