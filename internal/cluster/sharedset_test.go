package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"pacstack/internal/telemetry"
)

// TestMeshGateIgnoresCallerSet: the mesh gate runs both arms on the
// caller's Set, so the resilient arm's Set already holds the naive
// arm's samples. Verdict and reports must equal the Set-less gate's,
// and both must pass.
func TestMeshGateIgnoresCallerSet(t *testing.T) {
	bare, err := MeshGate(context.Background(), MeshGateConfig(42, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := MeshGateConfig(42, true)
	cfg.Telemetry = telemetry.New(telemetry.Options{})
	withSet, err := MeshGate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !withSet.Verdict.Pass() || !reflect.DeepEqual(withSet.Verdict, bare.Verdict) {
		t.Errorf("verdict with a caller Set %q, without %q", withSet.Verdict, bare.Verdict)
	}
	for _, arm := range []struct {
		name       string
		with, bare *ClusterReport
	}{{"naive", withSet.Naive, bare.Naive}, {"resilient", withSet.Resilient, bare.Resilient}} {
		got, _ := json.Marshal(arm.with)
		want, _ := json.Marshal(arm.bare)
		if string(got) != string(want) {
			t.Errorf("%s arm with a caller Set diverged:\nwith    %s\nwithout %s", arm.name, got, want)
		}
	}
}
