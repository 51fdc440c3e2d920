package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/fault"
	"pacstack/internal/serve"
	"pacstack/internal/telemetry"
)

// cold-chain and warm-chain: a closed loop of nproc clients, each
// calling serve.Server.Do for chain requests under pacstack, chaos
// off, on a server with Warm false (cold-chain) or true (warm-chain,
// the daemon default). A chain request retires ~640 simulated
// instructions, so the per-request fixed costs dominate: machine
// acquisition (kernel.New and Image.Boot, or pool lease and
// BootImage.Restore), rekey and QARMA key schedule, kernel RNG seeding,
// block build and classification.

// rateWindow is the width of the throughput windows whose median a
// closed-loop run reports; the median shrugs off a stall that lands
// in one window.
const rateWindow = 250 * time.Millisecond

// coldSample is how many results are compared field for field against
// a fresh Warm: false server on the same request seeds.
const coldSample = 32

// Every served case runs under PACStack, the paper's scheme.
const (
	scheme     = compile.SchemePACStack
	schemeName = "pacstack"
)

// golden is the reference outcome of one workload under the scheme.
type golden struct {
	out          string
	exit, instrs uint64
}

// servedCase is one request shape (a workload) with its golden.
type servedCase struct {
	workload string
	want     golden
}

// goldenCase computes the pair's golden with the block engine and
// checks it against the single-step oracle (block compilation off).
func goldenCase(r *runner, workload string) (servedCase, error) {
	prog, err := serve.ResolveProgram(workload, nil)
	if err != nil {
		return servedCase{}, err
	}
	out, exit, instrs, err := fault.NewEngine(prog).Golden(scheme)
	if err != nil {
		return servedCase{}, fmt.Errorf("golden %s/%v: %w", workload, scheme, err)
	}
	restore := cpu.SetBlockCompile(false)
	oout, oexit, oinstrs, oerr := fault.NewEngine(prog).Golden(scheme)
	restore()
	if oerr != nil {
		return servedCase{}, fmt.Errorf("oracle golden %s/%v: %w", workload, scheme, oerr)
	}
	r.check(string(out) == string(oout) && exit == oexit && instrs == oinstrs,
		"%s/%v golden (exit %d, %d instrs) differs from the single-step oracle (exit %d, %d instrs)",
		workload, scheme, exit, instrs, oexit, oinstrs)
	return servedCase{workload, golden{string(out), exit, instrs}}, nil
}

// served is one request's observation: when it completed, its wall
// latency around Do, and a fingerprint of the fields checked against
// the golden — compact, so the bookkeeping barely moves rss_peak_mb.
// A request that returned an error has fp 0 and its error in failures.
type served struct {
	end, lat time.Duration
	fp       uint64
	c        int32 // case index
}

// failure is a request that returned an error.
type failure struct {
	c   int32
	err error
}

// fingerprint is FNV-1a over a result's Output, ExitCode and Instrs;
// never 0.
func fingerprint(out string, exit, instrs uint64) uint64 {
	h := uint64(14695981039346656037)
	add := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := 0; i < len(out); i++ {
		add(out[i])
	}
	for _, v := range [2]uint64{exit, instrs} {
		for i := 0; i < 8; i++ {
			add(byte(v >> (8 * i)))
		}
	}
	return h | 1
}

func (g golden) fp() uint64 { return fingerprint(g.out, g.exit, g.instrs) }

// observe records one Do call.
func observe(obs []served, fails []failure, c int, end, lat time.Duration, res *serve.Result, err error) ([]served, []failure) {
	o := served{end: end, lat: lat, c: int32(c)}
	switch {
	case err != nil:
		fails = append(fails, failure{int32(c), err})
	case res != nil:
		o.fp = fingerprint(res.Output, res.ExitCode, res.Instrs)
	}
	return append(obs, o), fails
}

// serveLoop runs nproc closed-loop clients against s for d. Request i
// is case i mod len(cases) with seed derive(seed, stream, i). It
// returns every observation, the errors, and the first coldSample full
// results.
func serveLoop(r *runner, s *serve.Server, cases []servedCase, stream uint64, d time.Duration) ([]served, []failure, []*serve.Result) {
	var next atomic.Int64
	per := make([][]served, r.nproc)
	perFails := make([][]failure, r.nproc)
	sample := make([]*serve.Result, coldSample)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Sized for a 35 s window, so growth rarely reallocates
			// the bookkeeping mid-run and moves rss_peak_mb.
			obs := make([]served, 0, 1<<18)
			var fails []failure
			for {
				i := int(next.Add(1) - 1)
				cs := cases[i%len(cases)]
				req := serve.Request{Workload: cs.workload, Scheme: schemeName, Seed: derive(r.seed, stream, uint64(i))}
				t0 := time.Now()
				res, err := s.Do(context.Background(), req)
				t1 := time.Now()
				obs, fails = observe(obs, fails, i%len(cases), t1.Sub(start), t1.Sub(t0), res, err)
				if i < coldSample {
					sample[i] = res
				}
				if t1.Sub(start) >= d {
					break
				}
			}
			per[c], perFails[c] = obs, fails
		}(c)
	}
	wg.Wait()
	var all []served
	var fails []failure
	for c := range per {
		all = append(all, per[c]...)
		fails = append(fails, perFails[c]...)
	}
	return all, fails, sample
}

// judged is what judgeServed makes of a loop's observations.
type judged struct {
	rps, mips []float64 // per rateWindow: correct requests and their MIPS
	latUS     []float64 // every latency
	tailUS    []float64 // per rateWindow: the tail percentile of its latencies
}

// judgeServed checks every observation against its case's golden.
func judgeServed(r *runner, cases []servedCase, obs []served, fails []failure, d time.Duration) judged {
	for _, f := range fails {
		r.check(false, "%s request: %v", cases[f.c].workload, f.err)
	}
	var j judged
	ends := make([]time.Duration, 0, len(obs))
	ok := make([]float64, 0, len(obs))
	instrs := make([]float64, 0, len(obs))
	windows := map[int][]float64{}
	for _, o := range obs {
		w := cases[o.c].want
		good := o.fp == w.fp()
		if o.fp != 0 {
			r.check(good, "%s request: result differs from the golden (exit %d, %d instrs, output %q)", cases[o.c].workload, w.exit, w.instrs, w.out)
		}
		ends = append(ends, o.end)
		lat := float64(o.lat) / 1e3
		j.latUS = append(j.latUS, lat)
		if k := int(o.end / rateWindow); k < int(d/rateWindow) {
			windows[k] = append(windows[k], lat)
		}
		if good {
			ok = append(ok, 1)
			instrs = append(instrs, float64(w.instrs)/1e6)
		} else {
			ok = append(ok, 0)
			instrs = append(instrs, 0)
		}
	}
	for _, lats := range windows {
		j.tailUS = append(j.tailUS, quantile(lats, tailQ(len(lats))))
	}
	j.rps, j.mips = rates(ends, ok, rateWindow, d), rates(ends, instrs, rateWindow, d)
	return j
}

// checkColdSample replays the sampled request seeds on a fresh
// Warm: false server and requires every result to equal its cold twin
// field for field.
func checkColdSample(r *runner, cfg serve.Config, cases []servedCase, stream uint64, sample []*serve.Result) {
	cfg.Warm = false
	cfg.Telemetry = registryOnly()
	cold := serve.New(cfg)
	for i, got := range sample {
		if got == nil {
			continue
		}
		cs := cases[i%len(cases)]
		res, err := cold.Do(context.Background(), serve.Request{Workload: cs.workload, Scheme: schemeName, Seed: derive(r.seed, stream, uint64(i))})
		r.check(err == nil && reflect.DeepEqual(*got, *res), "request %d: result %+v differs from a cold server's %+v (err %v)", i, *got, res, err)
	}
}

// serverConfig is the server the serving workloads measure.
func serverConfig(r *runner, tel *telemetry.Set) serve.Config {
	return serve.Config{
		Workers:   r.nproc,
		Queue:     r.nproc,
		Seed:      derive(r.seed, streamServer, 0),
		Warm:      r.warm,
		Telemetry: tel,
	}
}

// newServer builds a server and primes it with nproc concurrent
// requests per case — the engine compile and golden run and, warm, the
// pool template boot, boot-image encode and machine growth. The
// priming results are returned so they can be checked outside set-up
// timing.
func newServer(r *runner, cases []servedCase, tel *telemetry.Set) (*serve.Server, []served, []failure) {
	s := serve.New(serverConfig(r, tel))
	n := r.nproc * len(cases)
	per := make([][]served, r.nproc)
	perFails := make([][]failure, r.nproc)
	var wg sync.WaitGroup
	for g := 0; g < r.nproc; g++ { // at most nproc in flight: never shed
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < n; j += r.nproc {
				cs := cases[j%len(cases)]
				res, err := s.Do(context.Background(), serve.Request{Workload: cs.workload, Scheme: schemeName, Seed: derive(r.seed, streamSetup, uint64(j))})
				per[g], perFails[g] = observe(per[g], perFails[g], j%len(cases), 0, 0, res, err)
			}
		}(g)
	}
	wg.Wait()
	var obs []served
	var fails []failure
	for g := range per {
		obs = append(obs, per[g]...)
		fails = append(fails, perFails[g]...)
	}
	return s, obs, fails
}

func runChain(r *runner) error {
	cs, err := goldenCase(r, "chain")
	if err != nil {
		return err
	}
	cases := []servedCase{cs}

	var s *serve.Server
	var primed []served
	var primeFails []failure
	setup, setups, err := timeSetup(func() error {
		var obs []served
		var fails []failure
		s, obs, fails = newServer(r, cases, registryOnly())
		primed, primeFails = append(primed, obs...), append(primeFails, fails...)
		return nil
	})
	if err != nil {
		return err
	}
	judgeServed(r, cases, primed, primeFails, time.Nanosecond)

	if r.traced {
		return tracedChain(r, cases)
	}

	obs, fails, sample := serveLoop(r, s, cases, streamRequest, r.window)
	rss := rssPeakMB()
	j := judgeServed(r, cases, obs, fails, r.window)
	checkColdSample(r, s.Config(), cases, streamRequest, sample)
	restores, fallbacks, violations, _ := s.PoolStats()
	r.check(violations == 0, "%d pool key violations", violations)
	r.note("pool: %d restores, %d cold fallbacks, %d key violations over %d requests", restores, fallbacks, violations, len(obs))
	r.endToEnd(endToEnd{
		op: "request", rates: j.rps, mips: j.mips, latUS: j.latUS, tailUS: j.tailUS, setup: setup, setups: setups, rss: rss,
		aliases: [3]string{"serve_rps", "serve_p50_us", "serve_p99_us"},
	})
	return nil
}

// tracedChain: the layer budget's alternating untraced and traced
// Do loops give the tracing overhead, the traced server's registry the
// counts; then the ladder on the chain case.
func tracedChain(r *runner, cases []servedCase) error {
	pairs, snap, err := runBudget(r, cases, r.window*3/5)
	if err != nil {
		return err
	}
	r.traceOverhead(pairs)
	r.servingCounts(snap)
	return runLadder(r, cases, r.window*2/5)
}
