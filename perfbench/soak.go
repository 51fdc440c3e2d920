package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pacstack/internal/cluster"
	"pacstack/internal/fault"
	"pacstack/internal/mesh"
	"pacstack/internal/par"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
	"pacstack/internal/workload"
)

// soak-burst: one serve.Soak per seed in open-loop virtual time, in
// the shape of check.sh's traffic gate — traffic.BurstScenario, 2%
// chaos with one heal, adaptive admission, warm boot model. It runs
// the serve discrete-event simulator's replay, AIMD, admission,
// breakers, retries, traffic generation and telemetry events, and uses
// pool and engine differently from warm-chain: heterogeneous classes
// (nginx, SPEC), chaos-armed attempts and heal respawns.
//
// fleet-mesh: one cluster.Soak(cluster.MeshGateConfig(seed, true)) per
// seed — the router, mesh sampling, hedging with its §4.3 key checks,
// the retry budget, outlier ejection and brownout, which run nowhere
// else, on the cluster's own discrete-event simulator.
// fleet-mesh-unhedged is the same soak with hedging off, so no hedge
// key check runs; everything else in the resilient config stays on.
//
// Neither treats an SLO verdict as correctness: whether a class holds
// its SLO depends on the seed.

// soakOut is one soak's outcome as the benchmark judges it.
type soakOut struct {
	report []byte // the report as JSON, for the determinism check
	events int    // DES events: issued, retries, sheds and terminals
	check  func(r *runner, seed int64)
}

// soakDriver runs one soak of a workload for a seed.
type soakDriver struct {
	name string
	run  func(seed int64, tel *telemetry.Set) (soakOut, error)
	// precompute replays the soak's outcome precompute outside it:
	// the same arrivals through serve.Server.Do with the soak's
	// per-arrival seeds. Soak wall minus this is the replay's share.
	precompute func(seed int64) error
	warm       bool // whether the precompute serves from warm pools
}

func burstConfig(seed int64, tel *telemetry.Set) serve.SoakConfig {
	m := traffic.BurstScenario(seed)
	return serve.SoakConfig{
		Seed:      seed,
		Workers:   4,
		Cores:     32,
		ChaosRate: 0.02,
		Heal:      1,
		Traffic:   &m,
		BootModel: "warm",
		Adaptive:  &resilience.AIMDConfig{Max: 48, Step: 4},
		Telemetry: tel,
	}
}

var burstDriver = soakDriver{
	name: "soak-burst",
	run: func(seed int64, tel *telemetry.Set) (soakOut, error) {
		rep, err := serve.Soak(context.Background(), burstConfig(seed, tel))
		if err != nil {
			return soakOut{}, err
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return soakOut{}, err
		}
		return soakOut{
			report: raw,
			events: rep.Issued + rep.Retries + rep.Sheds + rep.OK + rep.Detected + rep.Silent + rep.GaveUp,
			check: func(r *runner, seed int64) {
				r.check(rep.Graceful(), "soak seed %d: not graceful (issued %d, in flight %d)", seed, rep.Issued, rep.InFlightAtEnd)
				silent := 0
				for _, row := range rep.PerScheme {
					if row.Scheme == schemeName {
						silent += row.Silent
					}
				}
				r.check(silent == 0 && rep.Silent == 0, "soak seed %d: %d silent outcomes", seed, rep.Silent)
				r.check(rep.PoolKeyViolations == 0, "soak seed %d: %d pool key violations", seed, rep.PoolKeyViolations)
				r.check(rep.PoolRestores > 0, "soak seed %d: warm boot model served no pool restores", seed)
			},
		}, nil
	},
	precompute: func(seed int64) error { return precompute(burstConfig(seed, nil).Traffic, seed, 0.02, 1, true) },
	warm:       true,
}

// meshDriver is fleet-mesh's driver, or with hedge false
// fleet-mesh-unhedged's.
func meshDriver(hedge bool) soakDriver {
	name := "fleet-mesh"
	if !hedge {
		name += "-unhedged"
	}
	config := func(seed int64) cluster.SoakConfig {
		cfg := cluster.MeshGateConfig(seed, true)
		if !hedge {
			cfg.Hedge = nil
		}
		return cfg
	}
	return soakDriver{
		name: name,
		run: func(seed int64, tel *telemetry.Set) (soakOut, error) {
			cfg := config(seed)
			cfg.Telemetry = tel
			rep, err := cluster.Soak(context.Background(), cfg)
			if err != nil {
				return soakOut{}, err
			}
			raw, err := json.Marshal(rep)
			if err != nil {
				return soakOut{}, err
			}
			return soakOut{
				report: raw,
				events: rep.Issued + rep.Retries + rep.Sheds + rep.OK + rep.Detected + rep.Silent + rep.GaveUp,
				check: func(r *runner, seed int64) {
					err := rep.Check() // graceful, no silent outcome, no migrated or hedge key sharing
					r.check(err == nil, "fleet seed %d: %v", seed, err)
				},
			}, nil
		},
		precompute: func(seed int64) error {
			cfg := config(seed)
			return precompute(cfg.Traffic, seed, cfg.ChaosRate, cfg.Heal, false)
		},
	}
}

// soakMix is the serving tier's per-arrival seed derivation (the
// splitmix64 finalizer over the soak seed and the arrival index).
func soakMix(a, b int64) int64 {
	z := uint64(a)*0x9e3779b97f4a7c15 + uint64(b)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// precompute executes a model's arrivals through serve.Server.Do the
// way a soak's first phase does: a regular server and an always-
// injecting one for poison arrivals, fanned out over the par workers.
func precompute(m *traffic.Model, seed int64, chaos float64, heal int, warm bool) error {
	arrivals, err := m.Generate()
	if err != nil {
		return err
	}
	inner := serve.Config{
		Workers: len(arrivals) + 1, Queue: len(arrivals), Seed: seed,
		Chaos: chaos > 0, ChaosRate: chaos, Heal: heal,
		BreakerThreshold: -1, Warm: warm, Telemetry: registryOnly(),
	}
	srv := serve.New(inner)
	inner.Chaos, inner.ChaosRate = true, 1
	inner.ChaosKinds = []fault.Kind{fault.KindRetAddr, fault.KindStackSmash}
	psrv := serve.New(inner)
	return par.ForEachErr(len(arrivals), func(id int) error {
		a := arrivals[id]
		s := srv
		if a.Poison {
			s = psrv
		}
		reqSeed := soakMix(seed, int64(id)+0x5f01)
		if reqSeed == 0 {
			reqSeed = 1
		}
		_, err := s.Do(context.Background(), serve.Request{Workload: a.Workload, Scheme: a.Scheme, Seed: reqSeed})
		var ce *serve.CorruptionError
		if err != nil && !errors.As(err, &ce) {
			return fmt.Errorf("arrival %d: %w", id, err)
		}
		return nil
	})
}

// soakCases are the request shapes of the traffic mixture the traced
// run's budget and ladder serve: chain, one SPECrate, one SPECspeed
// benchmark and nginx, all under pacstack.
func soakCases(r *runner) ([]servedCase, error) {
	var cases []servedCase
	for _, w := range []string{"chain", workload.SPEC[1].Name, workload.SPEC[9].Name, "nginx"} {
		cs, err := goldenCase(r, w)
		if err != nil {
			return nil, err
		}
		cases = append(cases, cs)
	}
	return cases, nil
}

// soakSetup builds what a soak builds before its precompute: the
// arrival stream, and a server with the engine (compile and golden
// run) and, for the warm model, the boot image and a pool machine of
// every workload the mixture names. Request errors are appended to
// fails, to be counted outside set-up timing.
func soakSetup(r *runner, d soakDriver, fails *[]error) error {
	m := traffic.BurstScenario(derive(r.seed, streamSoak, 0))
	if _, err := m.Generate(); err != nil {
		return err
	}
	if _, err := mesh.New(mesh.Config{Links: map[int]mesh.LinkConfig{0: mesh.Gray()}}, r.seed); err != nil {
		return err
	}
	s := serve.New(serve.Config{Workers: r.nproc, Queue: 64, Seed: r.seed, Warm: d.warm, BreakerThreshold: -1, Telemetry: registryOnly()})
	seen := map[string]bool{}
	for _, c := range m.Classes {
		for _, w := range c.Workloads {
			if seen[w] {
				continue
			}
			seen[w] = true
			if _, err := s.Do(context.Background(), serve.Request{Workload: w, Scheme: schemeName, Seed: r.seed}); err != nil {
				*fails = append(*fails, fmt.Errorf("setup request %s: %w", w, err))
			}
		}
	}
	return nil
}

// soakSample is one timed soak.
type soakSample struct {
	seed   int64
	out    soakOut
	wall   time.Duration
	snap   telemetry.MetricsSnapshot
	events int // event-ring records (traced soaks)
}

// soakOnce runs one soak. A soak that returns an error is a failed
// operation: it is counted, and ok is false.
func soakOnce(r *runner, drv soakDriver, seed int64, traced bool) (soakSample, bool) {
	tel := registryOnly()
	if traced {
		tel = telemetry.New(telemetry.Options{})
	}
	t := time.Now()
	o, err := drv.run(seed, tel)
	wall := time.Since(t)
	if err != nil {
		r.check(false, "%s seed %d: %v", drv.name, seed, err)
		return soakSample{}, false
	}
	o.check(r, seed)
	return soakSample{seed: seed, out: o, wall: wall, snap: tel.Registry().Gather(), events: int(tel.Log().Snapshot().NextSeq)}, true
}

func (s soakSample) rate() float64 { return float64(s.out.events) / s.wall.Seconds() }

// soakLoop runs untraced soaks on successive derived seeds for d.
func soakLoop(r *runner, drv soakDriver, d time.Duration) ([]soakSample, error) {
	var out []soakSample
	for start, j := time.Now(), 0; time.Since(start) < d; j++ {
		if s, ok := soakOnce(r, drv, derive(r.seed, streamSoak, uint64(j)), false); ok {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s soak completed", drv.name)
	}
	return out, nil
}

// checkDeterminism reruns the first seed with a full telemetry set at
// the run's width and at par width 1: reports and telemetry dumps must
// match byte for byte, and the timed run's report must match them.
func checkDeterminism(r *runner, drv soakDriver, s soakSample) {
	dump := func(workers int) ([]byte, []byte, error) {
		defer par.SetWorkers(workers)()
		tel := telemetry.New(telemetry.Options{})
		o, err := drv.run(s.seed, tel)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if err := tel.WriteJSON(&buf); err != nil {
			return nil, nil, err
		}
		return o.report, buf.Bytes(), nil
	}
	repN, telN, err := dump(r.nproc)
	if err == nil {
		var rep1, tel1 []byte
		if rep1, tel1, err = dump(1); err == nil {
			r.check(bytes.Equal(repN, rep1), "%s seed %d: report differs between par %d and par 1", drv.name, s.seed, r.nproc)
			r.check(bytes.Equal(telN, tel1), "%s seed %d: telemetry dump differs between par %d and par 1", drv.name, s.seed, r.nproc)
			r.check(bytes.Equal(s.out.report, rep1), "%s seed %d: timed run's report differs from the par 1 rerun", drv.name, s.seed)
			return
		}
	}
	r.check(false, "%s seed %d: determinism rerun: %v", drv.name, s.seed, err)
}

func runSoakBurst(r *runner) error         { return runSoak(r, burstDriver) }
func runFleetMesh(r *runner) error         { return runSoak(r, meshDriver(true)) }
func runFleetMeshUnhedged(r *runner) error { return runSoak(r, meshDriver(false)) }

func runSoak(r *runner, drv soakDriver) error {
	var fails []error
	setup, setups, err := timeSetup(func() error { return soakSetup(r, drv, &fails) })
	if err != nil {
		return err
	}
	for _, err := range fails {
		r.check(false, "%v", err)
	}
	if r.traced {
		return tracedSoak(r, drv)
	}
	samples, err := soakLoop(r, drv, r.window)
	if err != nil {
		return err
	}
	rss := rssPeakMB()
	var rate, mips, latUS []float64
	for _, s := range samples {
		secs := s.wall.Seconds()
		rate = append(rate, s.rate())
		mips = append(mips, float64(counterSum(s.snap, "pacstack_kernel_instrs_total"))/secs/1e6)
		latUS = append(latUS, secs*1e6)
	}
	checkDeterminism(r, drv, samples[0])
	r.endToEnd(endToEnd{
		op: "DES event", rates: rate, mips: mips, latUS: latUS, setup: setup, setups: setups, rss: rss,
		aliases: [3]string{"des_events_s", "soak wall p50", "soak wall tail"},
	})
	return nil
}

// tracedSoak: per seed, an untraced soak, a traced one (event ring
// on) and the outside-timed precompute of the same arrivals, back to
// back so host drift hits all three alike; then the budget and the
// ladder on the mixture's shapes.
func tracedSoak(r *runner, drv soakDriver) error {
	var pairs [][2]float64
	var replay []float64
	var traced []soakSample
	for start, j := time.Now(), 0; time.Since(start) < r.window/2; j++ {
		seed := derive(r.seed, streamSoak, uint64(j))
		p, ok := soakOnce(r, drv, seed, false)
		t, tok := soakOnce(r, drv, seed, true)
		if !ok || !tok {
			continue
		}
		tp := time.Now()
		err := drv.precompute(seed)
		pre := time.Since(tp)
		r.check(err == nil, "%s seed %d: outside precompute: %v", drv.name, seed, err)
		if err == nil {
			replay = append(replay, (p.wall - pre).Seconds())
		}
		pairs = append(pairs, [2]float64{p.rate(), t.rate()})
		traced = append(traced, t)
	}
	if len(traced) == 0 {
		return fmt.Errorf("no %s soak completed", drv.name)
	}
	r.traceOverhead(pairs)

	// Counts from the first traced soak's registry; events averaged
	// over every traced soak.
	snap := traced[0].snap
	r.servingCounts(snap)
	var events float64
	for _, s := range traced {
		events += float64(s.events)
	}
	r.put("telemetry.events_per_soak", events/float64(len(traced)), "count")
	r.put("cluster.hedges_per_req", ratio(float64(counterSum(snap, "pacstack_cluster_hedges_total")),
		float64(counterSum(snap, "pacstack_serve_requests_total"))), "ratio")
	if len(replay) > 0 {
		r.put("des.replay_s", median(replay), "s")
	}
	r.note("des.replay_s: soak wall minus outside-timed precompute, median of %d seeds (IQR %.3g s)",
		len(replay), quantile(replay, 0.75)-quantile(replay, 0.25))

	cases, err := soakCases(r)
	if err != nil {
		return err
	}
	if _, _, err := runBudget(r, cases, r.window/5); err != nil {
		return err
	}
	return runLadder(r, cases, r.window*3/10)
}
