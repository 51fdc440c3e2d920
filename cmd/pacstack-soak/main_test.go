package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunMatchesGoldens drives the command's flag path end to end: the
// text report, -json, -slo-report and -telemetry-dump must each write
// the bytes TestGolden pins for the scenario.
func TestRunMatchesGoldens(t *testing.T) {
	dir := t.TempDir()
	slo, tel := filepath.Join(dir, "slo.json"), filepath.Join(dir, "tel.json")
	for _, tc := range []struct {
		args  []string
		files map[string]string // output -> golden
	}{
		{[]string{"-scenario", "soak-burst", "-slo-report", slo, "-telemetry-dump", tel},
			map[string]string{"": "soak-burst.txt", slo: "soak-burst.slo.json", tel: "soak-burst.telemetry.json"}},
		{[]string{"-scenario", "soak-small", "-json"}, map[string]string{"": "soak-small.json"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		for path, name := range tc.files {
			got := stdout.Bytes()
			if path != "" {
				var err error
				if got, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, golden(t, name)) {
				t.Errorf("%v: output differs from %s", tc.args, name)
			}
		}
	}
}

func TestRunUnknownScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown scenario exited 0")
	}
	for _, name := range []string{"soak-chaos", "cluster-mesh-gate", "snap-crash-matrix"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error does not list %s: %s", name, stderr.String())
		}
	}
}
