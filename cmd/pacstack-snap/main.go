// Command pacstack-snap drives the crash-consistency experiments for
// the snapshot subsystem (internal/snap): for each seed it runs a
// PACStack victim, commits a checkpoint, then re-commits under a
// simulated power cut at every interesting byte offset of the commit
// protocol — the image-write region at its boundaries plus seeded
// samples, then every metadata step and journal-append offset
// exhaustively — plus seeded post-hoc bit rot, truncation and
// duplicate-rename faults. Recovery after each fault must restore
// exactly the previous or the new snapshot (never a torn hybrid),
// must report the damage whenever damage exists, and the restored
// machine must replay to a final state byte-identical to the
// uninterrupted run.
//
// The report is a pure function of the flags. The -json report embeds
// the campaign's telemetry dump (store commits, recoveries, anomaly
// tallies by kind) under a pinned clock; at the defaults it is the
// snap-crash-matrix scenario, pinned to testdata/golden by TestGolden.
//
// Usage:
//
//	pacstack-snap -crash-matrix [-seeds N] [-base-seed N]
//	              [-scheme NAME] [-samples N] [-json]
//
// Exit status is non-zero unless the campaign is clean: zero silent
// corruptions, zero restore panics, zero replay divergences.
package main

import (
	"flag"
	"log"
	"os"

	"pacstack/internal/harness"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pacstack-snap: ")
	crashMatrix := flag.Bool("crash-matrix", false, "run the torn-write crash matrix")
	seeds := flag.Int("seeds", 8, "kernel seeds to sweep")
	baseSeed := flag.Int64("base-seed", 1, "first seed; seed i is base+i")
	scheme := flag.String("scheme", "pacstack", "protection scheme the victim is compiled under")
	samples := flag.Int("samples", 24, "seeded torn offsets inside the image-write region (its boundaries and everything after it are exhaustive)")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of the table")
	flag.Parse()

	if !*crashMatrix {
		log.Fatal("nothing to do: pass -crash-matrix (see -h)")
	}
	sc, err := serve.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	res, err := harness.CrashMatrixRun(snap.MatrixConfig{
		Seeds:        *seeds,
		BaseSeed:     *baseSeed,
		Scheme:       sc,
		ImageSamples: *samples,
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := res.Artifacts(*asJSON)
	if err != nil {
		log.Fatal(err)
	}
	report := out[".txt"]
	if *asJSON {
		report = out[".json"]
	}
	os.Stdout.Write(report)

	if !res.Verdict.Pass() {
		log.Printf("CHECK FAILED: %v", res.Verdict.Err())
		os.Exit(1)
	}
}
