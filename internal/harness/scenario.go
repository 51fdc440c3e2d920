package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"pacstack/internal/cluster"
	"pacstack/internal/compile"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// Scenario is one pinned, named run of a soak, a gate or the crash
// matrix: TestGolden holds its artifacts to testdata/golden/NAME.*
// and cmd/pacstack-soak runs it by name.
type Scenario struct {
	Name string
	// Seed is the scenario's default seed (the crash matrix's base seed).
	Seed int64
	// JSON selects the golden report format: JSON, else rendered text.
	JSON bool
	// Run builds the scenario's config at seed, runs it and applies its
	// acceptance check, whose failures land in the result's Verdict.
	Run func(ctx context.Context, seed int64) (*Result, error)
}

// Result is what one scenario run leaves behind.
type Result struct {
	// Report is the run's JSON form; Text its rendered form (for a
	// gate, the two rendered reports or its ratio lines).
	Report any
	Text   string
	// SLO and Telemetry are set when the run has them.
	SLO       *traffic.SLOReport
	Telemetry *telemetry.Set
	// Verdict lists the acceptance criteria the run failed.
	Verdict serve.Verdict
}

// Artifacts returns the result's files keyed by golden suffix: the
// report as ".json" (asJSON) or ".txt", plus ".slo.json" and
// ".telemetry.json" when the run has them. TestGolden and the CLIs
// print and write exactly these bytes.
func (r *Result) Artifacts(asJSON bool) (map[string][]byte, error) {
	out := map[string][]byte{}
	js := map[string]any{}
	if asJSON {
		js[".json"] = r.Report
	} else {
		out[".txt"] = []byte(r.Text)
	}
	if r.SLO != nil {
		js[".slo.json"] = r.SLO
	}
	for suffix, v := range js {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return nil, err
		}
		out[suffix] = append(b, '\n')
	}
	if r.Telemetry != nil {
		var buf bytes.Buffer
		if err := r.Telemetry.WriteJSON(&buf); err != nil {
			return nil, err
		}
		out[".telemetry.json"] = buf.Bytes()
	}
	return out, nil
}

// Scenarios is the table of every pinned scenario.
func Scenarios() []Scenario {
	return []Scenario{
		// Chaos soak: ~10% control-flow faults, one supervised respawn.
		{"soak-chaos", 7, false, func(ctx context.Context, seed int64) (*Result, error) {
			return soak(ctx, chaosSoak(seed), 0)
		}},
		// The same soak served from the snapshot-fork pools.
		{"soak-warm", 7, false, func(ctx context.Context, seed int64) (*Result, error) {
			cfg := chaosSoak(seed)
			cfg.BootModel = "warm"
			return soak(ctx, cfg, 0)
		}},
		// Heavy-tail burst traffic under adaptive admission.
		{"soak-burst", 42, false, func(ctx context.Context, seed int64) (*Result, error) {
			return soak(ctx, burstSoak(seed), 0)
		}},
		// Checkpoints every 300 instructions, half the victims dying
		// mid-commit, two respawns to warm-restore with: torn commits
		// must happen and none may leak.
		{"soak-checkpoint", 1, false, func(ctx context.Context, seed int64) (*Result, error) {
			res, err := soak(ctx, serve.SoakConfig{
				Seed: seed, ChaosRate: 0.1, Heal: 2, CheckpointEvery: 300, CheckpointCrash: 0.5,
			}, 0)
			if err != nil {
				return nil, err
			}
			rep := res.Report.(*serve.SoakReport)
			if rep.Checkpoints == 0 {
				res.Verdict.Failf("no checkpoints committed")
			}
			if rep.TornCommits == 0 {
				res.Verdict.Failf("no torn commits at 50%% crash probability")
			}
			return res, nil
		}},
		// Overload-control gate: the burst breaks static admission and
		// the AIMD-resized pool holds every class SLO.
		{"soak-traffic-gate", 42, false, func(ctx context.Context, seed int64) (*Result, error) {
			g, err := serve.TrafficGate(ctx, burstSoak(seed))
			if err != nil {
				return nil, err
			}
			return &Result{
				Report:  map[string]*traffic.SLOReport{"static": g.Static.SLO, "adaptive": g.Adaptive.SLO},
				Text:    Soak(g.Static) + "\n" + Soak(g.Adaptive) + "\n",
				Verdict: g.Verdict,
			}, nil
		}},
		// Warm-pool gate: cold vs warm boot model, identical outcomes,
		// >= 10x / >= 20x goodput, zero image-key violations.
		{"soak-warm-gate", 7, false, func(ctx context.Context, seed int64) (*Result, error) {
			g, err := serve.WarmGate(ctx, chaosSoak(seed))
			if err != nil {
				return nil, err
			}
			rpvs := func(r *serve.SoakReport) string {
				return fmt.Sprintf("%d.%03d rpvs", r.RPVSMilli/1000, r.RPVSMilli%1000)
			}
			return &Result{
				Report: g,
				Text: fmt.Sprintf("closed loop: cold %s, warm %s (%.1fx)\nfork-server traffic: cold %s, warm %s (%.1fx)\n",
					rpvs(g.ClosedCold), rpvs(g.ClosedWarm), g.ClosedRatio,
					rpvs(g.TrafficCold), rpvs(g.TrafficWarm), g.TrafficRatio),
				Verdict: g.Verdict,
			}, nil
		}},
		// One backend killed mid-soak: migration with re-seeded keys,
		// orphans replayed exactly once, budget charged once.
		{"cluster-kill", 11, true, func(ctx context.Context, seed int64) (*Result, error) {
			return clusterSoak(ctx, failoverSoak(seed, 1, cluster.KillSpec{At: 40_000, Backend: -1}))
		}},
		// Two kills absorbed by a failover budget of two.
		{"cluster-cascade", 11, true, func(ctx context.Context, seed int64) (*Result, error) {
			return clusterSoak(ctx, failoverSoak(seed, 2,
				cluster.KillSpec{At: 40_000, Backend: -1}, cluster.KillSpec{At: 60_000, Backend: -1}))
		}},
		// Burst traffic with one backend behind a gray link, under the
		// full resilience stack: the mesh gate's resilient arm.
		{"cluster-mesh", 42, false, func(ctx context.Context, seed int64) (*Result, error) {
			return clusterSoak(ctx, cluster.MeshGateConfig(seed, true))
		}},
		// Chaos-mesh gate: the naive fleet blows an SLO behind the gray
		// link, the resilient one holds every class inside its budget.
		{"cluster-mesh-gate", 42, false, func(ctx context.Context, seed int64) (*Result, error) {
			g, err := cluster.MeshGate(ctx, cluster.MeshGateConfig(seed, true))
			if err != nil {
				return nil, err
			}
			return &Result{
				Report:  map[string]*traffic.SLOReport{"naive": g.Naive.SLO, "resilient": g.Resilient.SLO},
				Text:    ClusterSoak(g.Naive) + "\n" + ClusterSoak(g.Resilient) + "\n",
				Verdict: g.Verdict,
			}, nil
		}},
		// Small closed-loop soak with heavy chaos and a tight server.
		{"soak-small", 17, true, func(ctx context.Context, seed int64) (*Result, error) {
			return soak(ctx, serve.SoakConfig{
				Clients: 4, Requests: 8, Seed: seed, ChaosRate: 0.3, Workers: 2, Queue: 2,
			}, 0)
		}},
		// Two schemes, forced sheds and retries, bounded event ring.
		{"soak-two-schemes", 7, true, func(ctx context.Context, seed int64) (*Result, error) {
			return soak(ctx, serve.SoakConfig{
				Clients: 4, Requests: 6, Schemes: []string{"pacstack", "baseline"},
				Seed: seed, ChaosRate: 0.4, Heal: 1, Workers: 2, Queue: 1,
			}, 1024)
		}},
		// The burst scenario at a second seed, bounded event ring.
		{"soak-burst-seed7", 7, true, func(ctx context.Context, seed int64) (*Result, error) {
			return soak(ctx, burstSoak(seed), 512)
		}},
		// The mesh gate's resilient arm with vertical core scaling.
		{"cluster-mesh-vertical", 42, true, func(ctx context.Context, seed int64) (*Result, error) {
			cfg := cluster.MeshGateConfig(seed, true)
			cfg.VerticalAdaptive = &resilience.AIMDConfig{Start: 2, Max: 16}
			return clusterSoak(ctx, cfg)
		}},
		// Torn-write crash matrix: 8 seeds, 24 image samples.
		{"snap-crash-matrix", 1, true, func(ctx context.Context, seed int64) (*Result, error) {
			return CrashMatrixRun(snap.MatrixConfig{
				Seeds: 8, BaseSeed: seed, Scheme: compile.SchemePACStack, ImageSamples: 24,
			})
		}},
	}
}

// chaosSoak is the closed-loop chaos soak the chaos, warm and
// warm-gate scenarios share. Unset fields take the SoakConfig defaults.
func chaosSoak(seed int64) serve.SoakConfig {
	return serve.SoakConfig{Clients: 6, Requests: 12, Seed: seed, ChaosRate: 0.1, Heal: 1}
}

// burstSoak is the burst scenario under adaptive admission on a
// 4-worker pool over 32 cores, as the burst soak and the traffic gate
// run it.
func burstSoak(seed int64) serve.SoakConfig {
	model := traffic.BurstScenario(seed)
	return serve.SoakConfig{
		Seed: seed, ChaosRate: 0.02, Heal: 1, Workers: 4, Cores: 32,
		Traffic: &model, Adaptive: &resilience.AIMDConfig{Max: 48, Step: 4},
	}
}

// failoverSoak is the default 3-backend closed-loop fleet the kill
// scenarios share.
func failoverSoak(seed int64, budget int, kills ...cluster.KillSpec) cluster.SoakConfig {
	return cluster.SoakConfig{
		Clients: 6, Requests: 10, Seed: seed, ChaosRate: 0.1, Heal: 1,
		Kills: kills, FailoverBudget: budget,
	}
}

// soak runs one serve soak with telemetry (eventCap sizes the event
// ring; 0: the default) and checks it: zero silent corruptions and
// every request at a terminal state.
func soak(ctx context.Context, cfg serve.SoakConfig, eventCap int) (*Result, error) {
	cfg.Telemetry = telemetry.New(telemetry.Options{EventCap: eventCap})
	rep, err := serve.Soak(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Report: rep, Text: Soak(rep), SLO: rep.SLO, Telemetry: cfg.Telemetry}
	if rep.Silent != 0 {
		res.Verdict.Failf("%d silent corruption(s)", rep.Silent)
	}
	if !rep.Graceful() {
		res.Verdict.Failf("run not graceful (%d in flight, %d unaccounted)",
			rep.InFlightAtEnd, rep.Issued-(rep.OK+rep.Detected+rep.Silent+rep.GaveUp))
	}
	return res, nil
}

// clusterSoak runs one cluster soak with telemetry and checks it with
// ClusterReport.Check.
func clusterSoak(ctx context.Context, cfg cluster.SoakConfig) (*Result, error) {
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	rep, err := cluster.Soak(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Report: rep, Text: ClusterSoak(rep), SLO: rep.SLO, Telemetry: cfg.Telemetry}
	if err := rep.Check(); err != nil {
		res.Verdict.Failf("%v", err)
	}
	return res, nil
}

// CrashMatrixRun runs a crash-matrix campaign with its telemetry under
// a clock pinned to zero (the matrix has no timeline), so the JSON
// report — the campaign with its telemetry dump embedded — is a pure
// function of cfg. The verdict fails unless the campaign is clean.
func CrashMatrixRun(cfg snap.MatrixConfig) (*Result, error) {
	tel := telemetry.New(telemetry.Options{Clock: func() uint64 { return 0 }})
	cfg.Tel = snap.NewTelemetry(tel.Registry())
	rep, err := snap.RunMatrix(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Report: struct {
			*snap.MatrixReport
			Telemetry telemetry.Dump `json:"telemetry"`
		}{rep, tel.Dump()},
		Text: CrashMatrix(rep),
	}
	if !rep.Clean() {
		res.Verdict.Failf("silent=%d replay-mismatches=%d panics=%d",
			rep.Totals.Silent, rep.Totals.ReplayMismatches, rep.Totals.Panics)
	}
	return res, nil
}
