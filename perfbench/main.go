// Command perfbench is the repository's benchmark: one process per
// (workload, seed) run that measures a named workload, checks every
// output against a reference computed in the same process, and prints
// one JSON result object as its last line of standard output.
//
//	python3 perfbench/run.py --workload cold-chain --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with the
// event ring and the benchmark's own spans off. With --trace 1 it
// reports the per-layer metrics instead: the tracing overhead from
// back-to-back untraced and traced operations, counts read from the
// program's telemetry registry, the serve-path layer budget and the
// layer ladder on the workload's own inputs. README.md documents the
// workloads and which layer metric should move which end-to-end metric.
//
// The benchmark times calls into the repository's public package
// functions from outside; it changes no program code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"pacstack/internal/par"
)

// workloadDef is a workload's driver and how its servers acquire
// machines: from warm pools (snapshot restore) or by cold boot.
type workloadDef struct {
	run  func(*runner) error
	warm bool
}

// workloads maps each name to its definition. Later changes refer to
// the workloads by these names. BENCHMARK.json lists cold-chain,
// table2 and fleet-mesh-unhedged. warm-chain, soak-burst and
// fleet-mesh run, at every lease or hedge, a key-sharing probe that
// refuses about one key pair in 65,536 (README.md, "Known program
// defects"), so their runs fail at random; they stay runnable to
// reproduce that.
var workloads = map[string]workloadDef{
	"cold-chain":          {runChain, false},
	"warm-chain":          {runChain, true},
	"table2":              {runTable2, false},
	"soak-burst":          {runSoakBurst, true},
	"fleet-mesh":          {runFleetMesh, false},
	"fleet-mesh-unhedged": {runFleetMeshUnhedged, false},
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 35, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}

	// Size the load for the host: GOMAXPROCS, the internal/par worker
	// pool and the closed-loop client count all equal the CPU count.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	defer par.SetWorkers(nproc)()

	r := &runner{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		warm:    def.warm,
		nproc:   nproc,
		metrics: map[string]metric{},
	}
	if err := def.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	r.finish()
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run's settings and accumulates its checks and
// metrics.
type runner struct {
	seed   int64
	window time.Duration
	traced bool
	warm   bool // servers acquire machines from warm pools
	nproc  int

	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

// check counts one checked operation; a false ok counts it failed and
// keeps the first few reasons for the report.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// put records a metric; finish prints it by name and in the result. A
// metric without samples (NaN) is a failed check and reads 0.
func (r *runner) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "%s: no samples", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints a human-readable line that is not a JSON metric: the
// issue-named aliases, spreads, sample counts and the layer budget.
func (r *runner) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// finish prints every metric, the failures and the result object.
func (r *runner) finish() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("# failed_frac %.6g (%d of %d checked operations)\n", frac, r.failed, r.attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
