package pacstack

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pacstack/internal/harness"
	"pacstack/internal/par"
)

// update regenerates testdata/golden from the current tree:
//
//	go test -run TestGolden -update .
//
// Every byte it changes is a behaviour change of the soak simulators
// and must be explained in review, never regenerated away.
var update = flag.Bool("update", false, "rewrite testdata/golden from this tree")

// TestGolden pins every scenario in harness.Scenarios to committed
// bytes: each is run at its default seed at precompute widths 1 and 8,
// must pass its acceptance check, and each artifact must equal its
// file under testdata/golden. A width-only diff breaks the -par
// invariant; a diff at both widths is a behaviour change. Once every
// row has run, a golden file no row produced fails the test.
func TestGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	scenarios := harness.Scenarios()
	written := map[string]bool{}
	ran := 0
	for _, s := range scenarios {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			ran++
			var serial map[string][]byte
			for _, width := range []int{1, 8} {
				restore := par.SetWorkers(width)
				res, err := s.Run(context.Background(), s.Seed)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verdict.Pass() {
					t.Errorf("width %d: acceptance check failed: %v", width, res.Verdict.Err())
				}
				got, err := res.Artifacts(s.JSON)
				if err != nil {
					t.Fatal(err)
				}
				if serial == nil {
					serial = got
				}
				for suffix, data := range got {
					name := s.Name + suffix
					written[name] = true
					path := filepath.Join(dir, name)
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
	if ran < len(scenarios) || t.Failed() {
		return // skipped or failed rows leave files unaccounted for
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !written[f.Name()] {
			t.Errorf("%s: no scenario produces this golden; delete it or add its row", filepath.Join(dir, f.Name()))
		}
	}
}
