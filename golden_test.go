package pacstack

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pacstack/internal/cluster"
	"pacstack/internal/harness"
	"pacstack/internal/mesh"
	"pacstack/internal/par"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// update regenerates testdata/golden from the current tree:
//
//	go test -run TestGolden -update .
//
// Every byte it changes is a behaviour change of the soak simulators
// and must be explained in review, never regenerated away.
var update = flag.Bool("update", false, "rewrite testdata/golden from this tree")

// goldenRow is one pinned soak scenario: run builds it in process and
// returns its artifacts keyed by file suffix (".txt" rendered report,
// ".json" JSON report, ".slo.json" SLO report, ".telemetry.json"
// telemetry dump). The check.sh rows use the exact configs the CLIs
// build from check.sh's flags, so check.sh can cmp the CLI outputs
// against the same files.
type goldenRow struct {
	name string
	run  func(t *testing.T) map[string][]byte
}

// soakArtifacts runs one serve soak and collects the requested
// artifacts; eventCap sizes the telemetry ring (0: the default).
func soakArtifacts(t *testing.T, cfg serve.SoakConfig, eventCap int, text bool) map[string][]byte {
	t.Helper()
	tel := telemetry.New(telemetry.Options{EventCap: eventCap})
	cfg.Telemetry = tel
	rep, err := serve.Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{".telemetry.json": telemetryJSON(t, tel)}
	if text {
		out[".txt"] = []byte(harness.Soak(rep))
	} else {
		out[".json"] = indentJSON(t, rep)
	}
	if rep.SLO != nil {
		out[".slo.json"] = indentJSON(t, rep.SLO)
	}
	return out
}

// clusterArtifacts is soakArtifacts for the cluster soak.
func clusterArtifacts(t *testing.T, cfg cluster.SoakConfig, text bool) map[string][]byte {
	t.Helper()
	tel := telemetry.New(telemetry.Options{})
	cfg.Telemetry = tel
	rep, err := cluster.Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{".telemetry.json": telemetryJSON(t, tel)}
	if text {
		out[".txt"] = []byte(harness.ClusterSoak(rep))
	} else {
		out[".json"] = indentJSON(t, rep)
	}
	if rep.SLO != nil {
		out[".slo.json"] = indentJSON(t, rep.SLO)
	}
	return out
}

// indentJSON marshals v the way the CLIs print and write it.
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func telemetryJSON(t *testing.T, tel *telemetry.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSoakConfig is check.sh's SOAK_FLAGS as pacstack-soak builds
// them, CLI defaults included.
func checkSoakConfig() serve.SoakConfig {
	return serve.SoakConfig{
		Clients: 6, Requests: 12, Workload: "chain", Schemes: []string{"pacstack"},
		Seed: 7, ChaosRate: 0.1, Heal: 1,
		Workers: 4, Retries: 3, BreakerThreshold: 8,
	}
}

// checkClusterConfig is check.sh's CLUSTER_FLAGS / CASCADE_FLAGS base
// as pacstack-cluster builds it.
func checkClusterConfig(kills ...cluster.KillSpec) cluster.SoakConfig {
	return cluster.SoakConfig{
		Backends: 3, Clients: 6, Requests: 10, Workload: "chain", Schemes: []string{"pacstack"},
		Seed: 11, ChaosRate: 0.1, Heal: 1,
		Workers: 2, Retries: 3, BreakerThreshold: 8,
		Kills: kills, MigrateLatency: 5_000, FailoverBudget: 1,
	}
}

func goldenRows() []goldenRow {
	return []goldenRow{
		// check.sh: chaos soak.
		{"soak-chaos", func(t *testing.T) map[string][]byte {
			return soakArtifacts(t, checkSoakConfig(), 0, true)
		}},
		// check.sh: warm-pool soak.
		{"soak-warm", func(t *testing.T) map[string][]byte {
			cfg := checkSoakConfig()
			cfg.BootModel = "warm"
			return soakArtifacts(t, cfg, 0, true)
		}},
		// check.sh: heavy-tail burst under adaptive admission.
		{"soak-burst", func(t *testing.T) map[string][]byte {
			model := traffic.BurstScenario(42)
			cfg := serve.SoakConfig{
				Workload: "chain", Schemes: []string{"pacstack"},
				Seed: 42, ChaosRate: 0.02, Heal: 1,
				Workers: 4, Cores: 32, Retries: 3, BreakerThreshold: 8,
				Clients: 8, Requests: 25,
				Traffic:  &model,
				Adaptive: &resilience.AIMDConfig{Max: 48, Step: 4},
			}
			return soakArtifacts(t, cfg, 0, true)
		}},
		// check.sh: one backend killed mid-soak.
		{"cluster-kill", func(t *testing.T) map[string][]byte {
			return clusterArtifacts(t, checkClusterConfig(cluster.KillSpec{At: 40_000, Backend: -1}), false)
		}},
		// check.sh: two kills, budget two.
		{"cluster-cascade", func(t *testing.T) map[string][]byte {
			cfg := checkClusterConfig(cluster.KillSpec{At: 40_000, Backend: -1}, cluster.KillSpec{At: 60_000, Backend: -1})
			cfg.FailoverBudget = 2
			return clusterArtifacts(t, cfg, false)
		}},
		// check.sh: gray link under the full resilience stack.
		{"cluster-mesh", func(t *testing.T) map[string][]byte {
			model := traffic.BurstScenario(42)
			gate := cluster.MeshGateConfig(42, true)
			cfg := cluster.SoakConfig{
				Backends: 3, Clients: 8, Requests: 25, Workload: "chain", Schemes: []string{"pacstack"},
				Seed: 42, ChaosRate: 0.02, Heal: 1,
				Workers: 4, Queue: 8, Cores: 4, Retries: 3, BreakerThreshold: 8,
				MigrateLatency: 5_000, FailoverBudget: 1,
				Traffic:     &model,
				Mesh:        &mesh.Config{Links: map[int]mesh.LinkConfig{0: mesh.Gray()}},
				Hedge:       gate.Hedge,
				RetryBudget: gate.RetryBudget,
				Outlier:     gate.Outlier,
				Brownout:    gate.Brownout,
			}
			return clusterArtifacts(t, cfg, true)
		}},
		// Small closed-loop soak with heavy chaos and a tight server.
		{"soak-small", func(t *testing.T) map[string][]byte {
			return soakArtifacts(t, serve.SoakConfig{
				Clients: 4, Requests: 8, Schemes: []string{"pacstack"},
				Seed: 17, ChaosRate: 0.3, Workers: 2, Queue: 2,
			}, 0, false)
		}},
		// Two schemes, forced sheds and retries, bounded event ring.
		{"soak-two-schemes", func(t *testing.T) map[string][]byte {
			return soakArtifacts(t, serve.SoakConfig{
				Clients: 4, Requests: 6, Schemes: []string{"pacstack", "baseline"},
				Seed: 7, ChaosRate: 0.4, Heal: 1, Workers: 2, Queue: 1,
			}, 1024, false)
		}},
		// The burst scenario at a second seed, bounded event ring.
		{"soak-burst-seed7", func(t *testing.T) map[string][]byte {
			model := traffic.BurstScenario(7)
			return soakArtifacts(t, serve.SoakConfig{
				Seed: 7, Traffic: &model, Workers: 4, Cores: 32, ChaosRate: 0.02, Heal: 1,
				Adaptive: &resilience.AIMDConfig{Max: 48, Step: 4},
			}, 512, false)
		}},
		// The mesh gate's resilient arm with vertical core scaling.
		{"cluster-mesh-vertical", func(t *testing.T) map[string][]byte {
			cfg := cluster.MeshGateConfig(42, true)
			cfg.VerticalAdaptive = &resilience.AIMDConfig{Start: 2, Max: 16}
			return clusterArtifacts(t, cfg, false)
		}},
	}
}

// TestGolden pins every soak scenario to committed bytes: each row is
// built at precompute widths 1 and 8, and each artifact must equal its
// file under testdata/golden. A width-only diff breaks the -par
// invariant; a diff at both widths is a behaviour change.
func TestGolden(t *testing.T) {
	for _, row := range goldenRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			var serial map[string][]byte
			for _, width := range []int{1, 8} {
				restore := par.SetWorkers(width)
				got := row.run(t)
				restore()
				if serial == nil {
					serial = got
				}
				for suffix, data := range got {
					path := filepath.Join("testdata", "golden", row.name+suffix)
					if !bytes.Equal(data, serial[suffix]) {
						t.Errorf("%s: width %d differs from width 1", path, width)
						continue
					}
					if *update {
						if err := os.WriteFile(path, data, 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, want) {
						t.Errorf("%s: width %d differs from the golden (regenerate with -update only for an intended change)", path, width)
					}
				}
			}
		})
	}
}
