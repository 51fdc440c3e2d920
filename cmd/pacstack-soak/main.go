// Command pacstack-soak runs one named scenario from the pinned
// scenario table (internal/harness.Scenarios): a deterministic
// virtual-time chaos or traffic soak against the serving layer or the
// cluster tier, an acceptance gate, or the snapshot crash matrix. One
// seed produces byte-identical output on any machine — the same bytes
// TestGolden holds to testdata/golden/NAME.*.
//
// Usage:
//
//	pacstack-soak -scenario NAME [-seed N] [-json]
//	              [-telemetry-dump PATH] [-slo-report PATH]
//	              [-cpuprofile FILE] [-memprofile FILE]
//
// The report goes to stdout, as text or (-json) JSON; -telemetry-dump
// and -slo-report write the run's telemetry (metrics + security
// events) and per-class SLO evaluation to files. The scenario's
// acceptance check always applies — zero silent corruptions and every
// request at a terminal state for a soak, ClusterReport.Check for a
// fleet, the verdict for a gate — and the exit status is non-zero on
// any failed criterion, with the full JSON report left in a temp file
// to diff. An unknown -scenario lists the valid names.
//
// The -cpuprofile / -memprofile flags (same contract as
// pacstack-bench) write pprof profiles of the run, so the execution
// engine can be profiled under serving load.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pacstack/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected;
// it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pacstack-soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("scenario", "", "scenario to run (see the list an unknown name prints)")
	seed := fs.Int64("seed", 0, "override the scenario's default seed")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of the table")
	telemetryDump := fs.String("telemetry-dump", "", "write the run's telemetry (metrics + events) as JSON to this path")
	sloReport := fs.String("slo-report", "", "write the per-class SLO report as JSON to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pacstack-soak: %v\n", err)
		return 1
	}

	var s harness.Scenario
	var names []string
	for _, sc := range harness.Scenarios() {
		if sc.Name == *name {
			s = sc
		}
		names = append(names, sc.Name)
	}
	if s.Run == nil {
		fmt.Fprintf(stderr, "pacstack-soak: unknown -scenario %q; valid: %s\n", *name, strings.Join(names, ", "))
		return 2
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			s.Seed = *seed
		}
	})

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res, err := s.Run(context.Background(), s.Seed)
	if err != nil {
		return fail(err)
	}
	if *memProfile != "" {
		runtime.GC()
		var buf bytes.Buffer
		if err := pprof.WriteHeapProfile(&buf); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*memProfile, buf.Bytes(), 0o644); err != nil {
			return fail(err)
		}
	}

	files, err := res.Artifacts(*asJSON)
	if err != nil {
		return fail(err)
	}
	for suffix, path := range map[string]string{".slo.json": *sloReport, ".telemetry.json": *telemetryDump} {
		if path == "" {
			continue
		}
		data, ok := files[suffix]
		if !ok {
			return fail(fmt.Errorf("scenario %s writes no %s", s.Name, suffix))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fail(err)
		}
	}
	if *asJSON {
		stdout.Write(files[".json"])
	} else {
		stdout.Write(files[".txt"])
	}

	if !res.Verdict.Pass() {
		for _, c := range res.Verdict {
			fmt.Fprintf(stderr, "pacstack-soak: CHECK FAILED: %s\n", c)
		}
		// Leave the full report on disk so the failure can be diffed
		// against a known-good run.
		if js, err := res.Artifacts(true); err == nil {
			if f, err := os.CreateTemp("", "pacstack-soak-failed-*.json"); err == nil {
				if _, err := f.Write(js[".json"]); err == nil {
					fmt.Fprintf(stderr, "pacstack-soak: failing report written to %s\n", f.Name())
				}
				f.Close()
			}
		}
		return 1
	}
	return 0
}
