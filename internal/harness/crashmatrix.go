package harness

import (
	"fmt"
	"strings"

	"pacstack/internal/snap"
)

// CrashMatrix renders a crash-matrix campaign (internal/snap.RunMatrix)
// as the deterministic end-of-run summary cmd/pacstack-snap prints.
// Pure function of the report: byte-identical reports render
// byte-identically.
func CrashMatrix(r *snap.MatrixReport) string {
	var b strings.Builder
	b.WriteString("Crash matrix: torn commits at every protocol offset + seeded post-hoc storage faults (internal/snap)\n")
	fmt.Fprintf(&b, "scheme %s | %d seeds from %d\n", r.Scheme, r.Seeds, r.BaseSeed)

	fmt.Fprintf(&b, "\n%-6s %8s %8s %8s %12s %10s %8s %8s\n",
		"seed", "instrs", "image", "cost", "crash-points", "detected", "benign", "silent")
	for _, row := range r.Rows {
		d := row.Torn.Detected + row.BitRot.Detected + row.Truncate.Detected + row.DupRename.Detected
		bn := row.Torn.Benign + row.BitRot.Benign + row.Truncate.Benign + row.DupRename.Benign
		s := row.Torn.Silent + row.BitRot.Silent + row.Truncate.Silent + row.DupRename.Silent
		fmt.Fprintf(&b, "%-6d %8d %8d %8d %12d %10d %8d %8d\n",
			row.Seed, row.TotalInstrs, row.ImageBytes, row.CommitCost, row.CrashPoints, d, bn, s)
	}

	t := r.Totals
	fmt.Fprintf(&b, "\nper kind (runs/detected/benign/silent):\n")
	var torn, rot, trunc, dup snap.FaultTally
	for _, row := range r.Rows {
		acc := func(dst *snap.FaultTally, src snap.FaultTally) {
			dst.Runs += src.Runs
			dst.Detected += src.Detected
			dst.Benign += src.Benign
			dst.Silent += src.Silent
		}
		acc(&torn, row.Torn)
		acc(&rot, row.BitRot)
		acc(&trunc, row.Truncate)
		acc(&dup, row.DupRename)
	}
	for _, k := range []struct {
		name string
		t    snap.FaultTally
	}{{"torn-write", torn}, {"bit-rot", rot}, {"truncation", trunc}, {"dup-rename", dup}} {
		fmt.Fprintf(&b, "  %-12s %5d / %5d / %5d / %5d\n",
			k.name, k.t.Runs, k.t.Detected, k.t.Benign, k.t.Silent)
	}

	fmt.Fprintf(&b, "\ntotals: %d trials | %d detected | %d benign | %d silent\n",
		t.Runs, t.Detected, t.Benign, t.Silent)
	fmt.Fprintf(&b, "restores: %d to previous snapshot, %d to newest | replay mismatches %d | panics %d\n",
		t.RestoredPrev, t.RestoredNew, t.ReplayMismatches, t.Panics)
	if r.Clean() {
		fmt.Fprintf(&b, "clean: every injected fault was detected or provably benign; every restore replayed byte-identically\n")
	} else {
		fmt.Fprintf(&b, "NOT CLEAN: silent=%d replay-mismatches=%d panics=%d\n",
			t.Silent, t.ReplayMismatches, t.Panics)
	}
	return b.String()
}
