package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/par"
	"pacstack/internal/pool"
	"pacstack/internal/serve"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
)

// The layer budget mirrors the workload's serve path through public
// calls — cold: kernel.New → Kernel.Seed → Image.Boot (inside
// supervised RunCtx) → fault.ClassifyRun; warm: pool.Get →
// Kernel.Seed → pool.Reset (inside supervised RunCtx) →
// fault.ClassifyRun → pool.Put — records one span per call under a
// shared request id, and sets the layers' self times against the
// median latency of serve.Server.Do on the same cases. What the
// mirrored layers do not cover is serve's own share: admission,
// breaker, request RNG, panic isolation and metrics.

// layer names a span.
type layer uint8

const (
	lRequest layer = iota // the mirrored request, parent of the rest
	lAcquire              // kernel.New, or pool.Get
	lSeed
	lRun  // supervised RunCtx; parent of lBoot
	lBoot // Image.Boot and hardening, or pool.Reset
	lClassify
	lRelease // pool.Put (warm only)
	numLayers
)

var layerNames = [numLayers]string{"request", "acquire", "seed", "run", "boot", "classify", "release"}

// parentOf is the span tree of one mirrored request.
var parentOf = [numLayers]layer{lRequest, lRequest, lRequest, lRequest, lRun, lRequest, lRequest}

// span is one layer call of one request.
type span struct {
	req        int64
	layer      layer
	start, end time.Duration // offsets from the loop start
}

// rig is a served case with the objects the mirror and the ladder call
// into: its engine, compiled image, a warm pool built the way the
// serving layer builds one, and a cold-booted hardened process.
type rig struct {
	servedCase
	eng  *fault.Engine
	img  *compile.Image
	pool *pool.Pool
	proc *kernel.Process
}

// newRig builds case i's rig; the pool's counters go to reg when set.
func newRig(r *runner, cs servedCase, reg *telemetry.Registry, i int) (*rig, error) {
	prog, err := serve.ResolveProgram(cs.workload, nil)
	if err != nil {
		return nil, err
	}
	eng := fault.NewEngine(prog)
	img, err := eng.Image(scheme)
	if err != nil {
		return nil, err
	}
	var tel *pool.Telemetry
	if reg != nil {
		tel = pool.NewTelemetry(reg)
	}
	pl, err := pool.New(pool.Config{
		Img:       img,
		PA:        pa.DefaultConfig(),
		Seed:      derive(r.seed, streamServer, uint64(i)+1),
		Configure: func(p *kernel.Process) { fault.Harden(scheme, p) },
		Shards:    par.Workers(),
		Tel:       tel,
	})
	if err != nil {
		return nil, err
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(derive(r.seed, streamLadder, uint64(i)))
	proc, err := img.Boot(k)
	if err != nil {
		return nil, err
	}
	fault.Harden(scheme, proc)
	return &rig{servedCase: cs, eng: eng, img: img, pool: pl, proc: proc}, nil
}

// budget is the serving layer's watchdog for the case's golden length.
func (c *rig) budget() uint64 { return 4*c.want.instrs + 10_000 }

// mirror serves one request of the case the way serve's cold or warm
// path does, appending a span per layer call. It reports why the
// request failed or differs from the golden, or "" when it matched.
func (c *rig) mirror(warm bool, req, kseed int64, ktel *kernel.Telemetry, start time.Time, spans []span) ([]span, string, error) {
	at := func() time.Duration { return time.Since(start) }
	var m *pool.Machine
	var k *kernel.Kernel
	t0 := at()
	if warm {
		if m = c.pool.Get(); m == nil {
			return spans, "", fmt.Errorf("an uncapped pool refused a lease")
		}
		k = m.K
	} else {
		k = kernel.New(pa.DefaultConfig())
	}
	t1 := at()
	k.Seed(kseed)
	k.SetTelemetry(ktel)
	t2 := at()
	var r0, r1 time.Duration
	sup := supervise.New(c.img, k, supervise.Policy{Respawn: supervise.RespawnExec, Budget: c.budget()})
	sup.Boot = func() (*kernel.Process, error) {
		r0 = at()
		defer func() { r1 = at() }()
		if warm {
			return c.pool.Reset(m)
		}
		p, err := c.img.Boot(k)
		if err == nil {
			fault.Harden(scheme, p)
		}
		return p, err
	}
	sup.Configure = func(p *kernel.Process) { fault.Harden(scheme, p) }
	proc, runErr := sup.RunCtx(context.Background(), func(int, *kernel.Process) {})
	t3 := at()
	if proc == nil { // the boot itself failed: a failed request
		c.pool.Put(m)
		return spans, fmt.Sprintf("boot failed: %v", runErr), nil
	}
	outcome, _, err := c.eng.ClassifyRun(scheme, runErr, proc)
	t4 := at()
	// Judge before Put: once returned, the machine is another client's.
	var why string
	if err == nil && !(outcome == fault.OutcomeBenign && string(proc.Output) == c.want.out &&
		proc.ExitCode == c.want.exit && instrsOf(proc) == c.want.instrs) {
		why = fmt.Sprintf("%v outcome, exit %d, %d instrs, output %q", outcome, proc.ExitCode, instrsOf(proc), proc.Output)
	}
	t5 := at()
	c.pool.Put(m)
	t6 := at()
	if err != nil {
		return spans, "", err
	}
	spans = append(spans,
		span{req, lRequest, t0, t6}, span{req, lAcquire, t0, t1}, span{req, lSeed, t1, t2},
		span{req, lRun, t2, t3}, span{req, lBoot, r0, r1}, span{req, lClassify, t3, t4})
	if warm {
		spans = append(spans, span{req, lRelease, t5, t6})
	}
	return spans, why, nil
}

// mirrorLoop runs nproc clients through the mirror for d, numbering
// requests on from *next, and returns every span.
func mirrorLoop(r *runner, cases []*rig, ktel *kernel.Telemetry, next *atomic.Int64, d time.Duration) ([]span, error) {
	per := make([][]span, r.nproc)
	errs := make([]error, r.nproc)
	bad := make([]int, r.nproc)
	firstBad := make([]string, r.nproc)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spans := make([]span, 0, 8192)
			for time.Since(start) < d {
				i := next.Add(1) - 1
				mc := cases[int(i)%len(cases)]
				var why string
				var err error
				spans, why, err = mc.mirror(r.warm, i, derive(r.seed, streamRequest, uint64(i)), ktel, start, spans)
				if err != nil {
					errs[c] = err
					return
				}
				if why != "" {
					if bad[c]++; bad[c] == 1 {
						firstBad[c] = why
					}
				}
			}
			per[c] = spans
		}(c)
	}
	wg.Wait()
	var all []span
	for c := range per {
		if errs[c] != nil {
			return nil, errs[c]
		}
		r.check(bad[c] == 0, "%d mirrored requests failed or differ from their golden; first: %s", bad[c], firstBad[c])
		all = append(all, per[c]...)
	}
	return all, nil
}

// selfTimes turns spans into per-layer self times in microseconds: a
// span's duration minus the part its child spans cover.
func selfTimes(spans []span) [numLayers][]float64 {
	var out [numLayers][]float64
	child := map[int64]time.Duration{} // (req, parent layer) -> child time
	key := func(req int64, l layer) int64 { return req*int64(numLayers) + int64(l) }
	for _, s := range spans {
		if s.layer != lRequest {
			child[key(s.req, parentOf[s.layer])] += s.end - s.start
		}
	}
	for _, s := range spans {
		self := s.end - s.start
		if s.layer == lRequest || s.layer == lRun {
			self -= child[key(s.req, s.layer)]
		}
		out[s.layer] = append(out[s.layer], float64(self)/1e3)
	}
	return out
}

// budgetRounds is how many times the budget alternates its three
// loops, so host drift hits each alike.
const budgetRounds = 4

// runBudget measures serve.Server.Do untraced (registry only) and
// traced (event ring on), and the mirror — whose spans cost a few
// clock reads — alternating in budgetRounds rounds within d, and
// reports the layer budget against the untraced Do latency. It returns
// the (untraced, traced) Do rate of each round and the traced server's
// registry.
func runBudget(r *runner, cases []servedCase, d time.Duration) ([][2]float64, telemetry.MetricsSnapshot, error) {
	plainSrv, primed, fails := newServer(r, cases, registryOnly())
	judgeServed(r, cases, primed, fails, time.Nanosecond)
	tel := telemetry.New(telemetry.Options{})
	tracedSrv, primed, fails := newServer(r, cases, tel)
	judgeServed(r, cases, primed, fails, time.Nanosecond)
	reg := telemetry.NewRegistry()
	mcs := make([]*rig, len(cases))
	for i, cs := range cases {
		var err error
		if mcs[i], err = newRig(r, cs, reg, i); err != nil {
			return nil, telemetry.MetricsSnapshot{}, err
		}
	}
	ktel := kernelTelemetry(reg)

	slice := d / (3 * budgetRounds)
	var pairs [][2]float64
	var doLat []float64
	var spans []span
	var next atomic.Int64
	for k := 0; k < budgetRounds; k++ {
		obs, fails, sample := serveLoop(r, plainSrv, cases, streamRequest, slice)
		plain := judgeServed(r, cases, obs, fails, slice)
		doLat = append(doLat, plain.latUS...)
		if k == 0 {
			checkColdSample(r, plainSrv.Config(), cases, streamRequest, sample)
		}
		obs, fails, _ = serveLoop(r, tracedSrv, cases, streamRequest, slice)
		traced := judgeServed(r, cases, obs, fails, slice)
		pairs = append(pairs, [2]float64{median(plain.rps), median(traced.rps)})
		sp, err := mirrorLoop(r, mcs, ktel, &next, slice)
		if err != nil {
			return nil, telemetry.MetricsSnapshot{}, err
		}
		spans = append(spans, sp...)
	}

	self := selfTimes(spans)
	doP50 := median(doLat)
	var explained float64
	for l := lAcquire; l < numLayers; l++ {
		if l == lRelease && !r.warm {
			continue
		}
		m := median(self[l])
		explained += m
		r.put("budget."+layerNames[l]+"_us", m, "us")
		r.note("budget %-8s self p50 %8.3f us  IQR %5.1f%%  %5.1f%% of Do p50", layerNames[l], m, 100*spread(self[l]), 100*m/doP50)
	}
	var totals []float64
	for _, sp := range spans {
		if sp.layer == lRequest {
			totals = append(totals, float64(sp.end-sp.start)/1e3)
		}
	}
	unexplained := 100 * (doP50 - explained) / doP50
	r.put("serve.self_us", doP50-median(totals), "us")
	r.put("budget.unexplained_pct", unexplained, "%")
	r.note("budget: Do p50 %.3f us over %d requests; mirrored layers explain %.3f us; %.1f%% unexplained (serve's own share)",
		doP50, len(doLat), explained, unexplained)
	return pairs, tel.Registry().Gather(), nil
}

// kernelTelemetry is the serving layer's kernel and PA counter bundle,
// built on reg.
func kernelTelemetry(reg *telemetry.Registry) *kernel.Telemetry {
	return &kernel.Telemetry{
		Quanta: reg.Counter("pacstack_kernel_quanta_total", "scheduler quanta dispatched"),
		Instrs: reg.Counter("pacstack_kernel_instrs_total", "instructions retired"),
		Chain: &pa.Trace{
			PACIssued: reg.Counter("pacstack_pa_pac_issued_total", "pac* seals issued"),
			AuthOK:    reg.Counter("pacstack_pa_auth_ok_total", "aut* authentications that passed"),
			AuthFail:  reg.Counter("pacstack_pa_auth_fail_total", "aut* authentications rejected"),
			MemoHit:   reg.Counter("pacstack_pa_memo_hits_total", "PAC memo-cache hits"),
			MemoMiss:  reg.Counter("pacstack_pa_memo_misses_total", "PAC memo-cache misses"),
		},
	}
}
