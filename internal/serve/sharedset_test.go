package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"pacstack/internal/telemetry"
)

func reportJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSoakOnReusedSetEqualsFreshSet: a soak's report is a function of
// its config, not of what its telemetry Set already holds. The second
// of two warm burst soaks on one Set must report exactly what a soak
// on a fresh Set reports — SLO quantiles and pool counters included —
// while the Set still receives both runs' metrics.
func TestSoakOnReusedSetEqualsFreshSet(t *testing.T) {
	run := func(set *telemetry.Set) *SoakReport {
		cfg := burstConfig(42)
		cfg.BootModel, cfg.Telemetry = "warm", set
		rep, err := Soak(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fresh := run(telemetry.New(telemetry.Options{}))
	if fresh.PoolRestores == 0 || fresh.SLO == nil {
		t.Fatalf("vacuous comparison: %d restores, SLO %v", fresh.PoolRestores, fresh.SLO)
	}
	shared := telemetry.New(telemetry.Options{})
	run(shared)
	if got, want := reportJSON(t, run(shared)), reportJSON(t, fresh); got != want {
		t.Fatalf("soak on a reused Set diverged from a fresh-Set soak:\nreused %s\nfresh  %s", got, want)
	}
	if n := shared.Registry().Counter("pacstack_pool_restores_total", "").Value(); n != 2*fresh.PoolRestores {
		t.Errorf("shared Set counted %d pool restores over two runs, want %d", n, 2*fresh.PoolRestores)
	}
}

// TestTrafficGateIgnoresCallerSet: the traffic gate runs both arms on
// the caller's Set; its verdict and reports must equal the Set-less
// gate's.
func TestTrafficGateIgnoresCallerSet(t *testing.T) {
	bare, err := TrafficGate(context.Background(), burstConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := burstConfig(42)
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	withSet, err := TrafficGate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withSet.Verdict, bare.Verdict) {
		t.Errorf("verdict with a caller Set %q, without %q", withSet.Verdict, bare.Verdict)
	}
	for _, arm := range []struct {
		name       string
		with, bare *SoakReport
	}{{"static", withSet.Static, bare.Static}, {"adaptive", withSet.Adaptive, bare.Adaptive}} {
		if got, want := reportJSON(t, arm.with), reportJSON(t, arm.bare); got != want {
			t.Errorf("%s arm with a caller Set diverged:\nwith    %s\nwithout %s", arm.name, got, want)
		}
	}
}
