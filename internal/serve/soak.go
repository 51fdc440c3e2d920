// Deterministic soak: concurrent clients (or an open-loop traffic
// model) hammering the serving pipeline in virtual time, replayed by
// the shared discrete-event core (internal/des) over one backend.
// Outcomes are precomputed in parallel as pure functions of request
// identity; queueing, shedding, the per-scheme breakers, client
// retry/backoff and — in traffic mode — the contention model and the
// AIMD admission controller replay serially in virtual time, driving
// the same clock-free resilience state machines the daemon uses.
//
// The AIMD controller's congestion signal is the SERVICE duration
// (with the contention penalty), not end-to-end latency: queueing
// delay is the symptom a bigger pool fixes, while service-time
// dilation is the symptom a bigger pool causes. SLOs are still judged
// on end-to-end latency (what a client sees).
//
// Same seed and knobs in, byte-identical SoakReport out, regardless of
// GOMAXPROCS or machine.

package serve

import (
	"context"
	"errors"
	"fmt"

	"pacstack/internal/des"
	"pacstack/internal/fault"
	"pacstack/internal/pool"
	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// SoakConfig parameterises a soak run. Time-valued knobs are in
// simulated cycles.
type SoakConfig struct {
	// Clients virtual clients each issue Requests requests
	// back-to-back (with think time), retrying on shed/breaker
	// rejections. Defaults 8 and 25.
	Clients  int
	Requests int

	// Workload and Schemes select what runs; requests round-robin
	// across the schemes per client. Defaults: "chain", ["pacstack"].
	Workload string
	Schemes  []string

	// Seed fixes everything; same seed, same report. Default 1.
	Seed int64

	// Chaos injection knobs, as in Config.
	ChaosRate  float64
	ChaosKinds []fault.Kind
	Heal       int

	// Checkpoint knobs, as in Config: CheckpointEvery switches
	// per-request crash-consistent snapshotting on, CheckpointCrash is
	// the seeded probability of a simulated machine death mid-commit
	// (the kill-a-kernel-mid-checkpoint soak dimension).
	CheckpointEvery uint64
	CheckpointCrash float64

	// Server model: Workers simultaneous executions, Queue waiters,
	// everything beyond shed. Defaults 4 and 8.
	Workers int
	Queue   int

	// Retries is the per-request client retry budget for *rejections*
	// (sheds, breaker denials); execution outcomes are terminal.
	// Default 3. BackoffBase/BackoffCap shape the retry delays
	// (defaults 2_000 / 64_000 cycles).
	Retries     int
	BackoffBase uint64
	BackoffCap  uint64

	// BreakerThreshold/BreakerCooldown configure the per-scheme
	// breaker in virtual time (defaults 8 / 50_000 cycles);
	// Threshold < 0 disables it.
	BreakerThreshold int
	BreakerCooldown  uint64

	// Think is the mean inter-request think time per client; Overhead
	// is fixed per-execution service latency added to the victim's
	// simulated cycles. Defaults 1_000 and 500.
	Think    uint64
	Overhead uint64

	// Telemetry, when non-nil, receives the soak's metrics and events,
	// stamped with virtual time: the Set's clocks are retargeted to the
	// run's virtual clock and left there, so a dump taken after the run
	// is stamped with its final virtual time. The dump after a seeded
	// soak is byte-identical across runs and worker-pool widths:
	// counters are bumped from the parallel precompute phase (integer
	// adds commute), while every event is recorded from the serial
	// virtual-time replay. The report never reads the Set back (its
	// quantiles and pool counters are the run's own), so a Set reused
	// across runs changes no report.
	Telemetry *telemetry.Set

	// Traffic switches the soak into open-loop mode: instead of
	// Clients x Requests closed-loop clients, the model generates the
	// arrival stream (diurnal curve, bursts, heavy-tail class mixture,
	// slow clients, poison requests) and the report gains a per-class
	// SLO evaluation. Clients/Requests/Workload/Schemes/Think are
	// ignored in this mode; everything else applies as usual.
	Traffic *traffic.Model

	// Cores models the host's physical parallelism in traffic mode:
	// service time is stretched by ceil(busy/Cores), so growing the
	// worker pool past Cores trades queueing delay for service-time
	// dilation instead of adding free capacity. Default: Workers.
	Cores int

	// BootModel selects how machine acquisition is charged in virtual
	// time. "" (the default) keeps the legacy model — acquisition is
	// free, so every pre-existing gate calibration is untouched.
	// "cold" charges every execution the modeled full-boot cost
	// (pool.ModelCosts: text encoding plus constructing every page);
	// "warm" serves the precompute phase from warm pools (Config.Warm)
	// and charges the modeled snapshot-restore cost (COW page remap).
	// Outcomes are identical across all three models — the pool's
	// Reset consumes the same entropy stream as a cold boot — so the
	// models differ only in virtual-time cost, which is what makes the
	// warm-vs-cold requests/virtual-second ratio a fair measurement.
	BootModel string

	// Adaptive, when non-nil, replaces the static Workers/Queue limits
	// in traffic mode with an AIMD controller that ticks every
	// Interval virtual cycles and resizes the worker limit (queue
	// follows at 2x the limit). The controller's congestion signal is
	// service-time dilation, not end-to-end latency (see above).
	// Zero fields default to: Start = Workers, Interval = 10_000,
	// LatencyTarget = 1_048_576.
	Adaptive *resilience.AIMDConfig
}

// WithDefaults returns c with every zero knob at its default.
func (c SoakConfig) WithDefaults() SoakConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Requests <= 0 {
		c.Requests = 25
	}
	if c.Workload == "" {
		c.Workload = "chain"
	}
	if len(c.Schemes) == 0 {
		c.Schemes = []string{"pacstack"}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.ChaosKinds) == 0 {
		c.ChaosKinds = []fault.Kind{fault.KindRetAddr, fault.KindStackSmash, fault.KindSigFrame}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue == 0 {
		c.Queue = 2 * c.Workers
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 2_000
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 64_000
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 50_000
	}
	if c.Think == 0 {
		c.Think = 1_000
	}
	if c.Overhead == 0 {
		c.Overhead = 500
	}
	return c
}

// validBootModel rejects anything but the three cost models.
func validBootModel(model string) error {
	switch model {
	case "", "cold", "warm":
		return nil
	}
	return fmt.Errorf("unknown boot model %q (want \"cold\", \"warm\" or empty)", model)
}

// rpvsMilli converts OK terminals over a virtual-cycle span into
// milli-requests per virtual second at the 1 GHz virtual clock.
func rpvsMilli(ok int, cycles uint64) uint64 {
	if cycles == 0 {
		return 0
	}
	return uint64(ok) * 1_000_000_000_000 / cycles
}

// bootCost resolves the machine-acquisition charge of one (workload,
// scheme) under the selected boot model, from the compiled image: the
// full image-construction cost for "cold", the snapshot-restore cost
// for "warm"; the legacy model ("") charges nothing.
func bootCost(srv *Server, model, workload, scheme string) (uint64, error) {
	if model == "" {
		return 0, nil
	}
	eng, err := srv.engine(workload)
	if err != nil {
		return 0, err
	}
	sc, err := ParseScheme(scheme)
	if err != nil {
		return 0, err
	}
	img, err := eng.Image(sc)
	if err != nil {
		return 0, err
	}
	cold, warm := pool.ModelCosts(img)
	if model == "cold" {
		return cold, nil
	}
	return warm, nil
}

// SoakReport is the deterministic end-of-run summary. For one seed and
// knob set it is byte-identical across runs and machines.
type SoakReport struct {
	Seed      int64    `json:"seed"`
	Workload  string   `json:"workload"`
	Schemes   []string `json:"schemes"`
	Clients   int      `json:"clients"`
	PerClient int      `json:"requests_per_client"`
	ChaosRate float64  `json:"chaos_rate"`
	Heal      int      `json:"heal"`

	des.Totals
	BreakerOpens []des.SchemeCount `json:"breaker_opens,omitempty"`

	PerScheme []des.Row `json:"per_scheme"`

	VirtualCycles uint64 `json:"virtual_cycles"`
	InFlightAtEnd int    `json:"in_flight_at_end"`

	// BootModel records the machine-acquisition cost model ("" legacy,
	// "cold", "warm"); RPVSMilli is the delivered goodput in
	// milli-requests per virtual second: OK terminals over the run's
	// virtual cycles at the 1 GHz virtual clock. The warm-vs-cold gate
	// is a ratio of this number at the same seed.
	BootModel string `json:"boot_model,omitempty"`
	RPVSMilli uint64 `json:"rpvs_milli"`

	PoolCounts

	// Traffic marks an open-loop run; SLO is its per-class evaluation
	// (nil for closed-loop runs).
	Traffic bool               `json:"traffic,omitempty"`
	SLO     *traffic.SLOReport `json:"slo,omitempty"`
}

// PoolCounts is a warm-model soak's pool traffic, summed over the pools
// of its own inner servers: restores served, leases refused by a
// capped pool, and §4.3 image-key violations (must be zero).
type PoolCounts struct {
	PoolRestores      uint64 `json:"pool_restores,omitempty"`
	PoolColdFallbacks uint64 `json:"pool_cold_fallbacks,omitempty"`
	PoolKeyViolations uint64 `json:"pool_key_violations,omitempty"`
}

// Graceful reports whether the run ended cleanly: every issued request
// reached a terminal state (Terminal == Issued, the "no request lost"
// check) and nothing was left in flight.
func (r *SoakReport) Graceful() bool {
	return r.InFlightAtEnd == 0 && r.Terminal() == r.Issued
}

// validateModel checks that every class of a traffic model names a
// known scheme and workloads.
func validateModel(m *traffic.Model) error {
	for _, c := range m.Classes {
		name := c.Scheme
		if name == "" {
			name = "pacstack"
		}
		if _, err := ParseScheme(name); err != nil {
			return err
		}
		for _, w := range c.Workloads {
			if _, err := ResolveProgram(w, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// SoakSim prepares the shared replay every soak runs on, over n
// backends of cfg's shape (cfg has defaults applied): the arrival
// source (closed-loop clients, or cfg.Traffic's stream with its SLO
// evaluator), every request's outcome precomputed in parallel through
// inner servers, telemetry clocks retargeted to virtual time. The
// inner servers share the metrics registry but get NO event log: only
// commutative counter adds stay deterministic in the parallel phase,
// so every event is recorded from the serial replay. Poison arrivals
// run on a twin whose every attempt arms an injection, which makes
// them guaranteed hostile without touching regular traffic's seeds.
// It also returns the inner servers' warm-pool traffic.
func SoakSim(ctx context.Context, cfg SoakConfig, n int) (*des.Sim, PoolCounts, error) {
	var pc PoolCounts
	if err := validBootModel(cfg.BootModel); err != nil {
		return nil, pc, err
	}
	reg := cfg.Telemetry.Registry()
	var src *des.Source
	if cfg.Traffic != nil {
		arrivals, err := cfg.Traffic.Generate()
		if err != nil {
			return nil, pc, err
		}
		if len(arrivals) == 0 {
			return nil, pc, fmt.Errorf("soak: traffic model generated no arrivals")
		}
		if err := validateModel(cfg.Traffic); err != nil {
			return nil, pc, err
		}
		src = des.OpenLoop(cfg.Seed, arrivals, traffic.NewEvaluator(cfg.Traffic.Classes, reg), cfg.BackoffBase, cfg.BackoffCap)
	} else {
		for _, name := range cfg.Schemes {
			if _, err := ParseScheme(name); err != nil {
				return nil, pc, err
			}
		}
		src = des.ClosedLoop(cfg.Seed, cfg.Clients, cfg.Requests, cfg.Workload, cfg.Schemes, cfg.Think, cfg.BackoffBase, cfg.BackoffCap)
	}

	cores := cfg.Cores
	if cores <= 0 || cfg.Traffic == nil {
		cores = cfg.Workers
	}
	sim := des.New(src, nil, n, cfg.Workers, cfg.Queue, cores)
	sim.Overhead, sim.Retries, sim.Log = cfg.Overhead, cfg.Retries, cfg.Telemetry.Log()
	if cfg.Telemetry != nil {
		reg.SetClock(sim.Clock)
		sim.Log.SetClock(sim.Clock)
	}

	inner := Config{
		Workers:          len(src.Reqs) + 1, // never shed in the precompute phase
		Queue:            len(src.Reqs),
		Seed:             cfg.Seed,
		Chaos:            cfg.ChaosRate > 0,
		ChaosRate:        cfg.ChaosRate,
		ChaosKinds:       cfg.ChaosKinds,
		Heal:             cfg.Heal,
		CheckpointEvery:  cfg.CheckpointEvery,
		CheckpointCrash:  cfg.CheckpointCrash,
		BreakerThreshold: -1,
		Warm:             cfg.BootModel == "warm",
		Telemetry:        &telemetry.Set{Reg: reg},
	}
	srv := New(inner)
	inner.Chaos, inner.ChaosRate = true, 1
	inner.ChaosKinds = []fault.Kind{fault.KindRetAddr, fault.KindStackSmash}
	psrv := New(inner)

	// Resolve every engine up front, so an unknown name fails fast and
	// the parallel phase never contends on an engine build, and price
	// each (workload, scheme) under the boot model.
	boot := map[string]uint64{}
	for _, r := range src.Reqs {
		s := srv
		if r.Poison {
			s = psrv
		}
		if _, err := s.engine(r.Workload); err != nil {
			return nil, pc, err
		}
		key := r.Workload + "/" + r.Scheme
		if _, ok := boot[key]; !ok {
			c, err := bootCost(srv, cfg.BootModel, r.Workload, r.Scheme)
			if err != nil {
				return nil, pc, err
			}
			boot[key] = c
		}
	}

	out, err := des.Precompute(ctx, len(src.Reqs), func(id int) (des.Outcome, error) {
		r := src.Reqs[id]
		s := srv
		if r.Poison {
			s = psrv
		}
		o := des.Outcome{Boot: boot[r.Workload+"/"+r.Scheme]}
		res, err := s.Do(context.Background(), Request{Workload: r.Workload, Scheme: r.Scheme, Seed: r.Seed})
		var ce *CorruptionError
		var se *SilentCorruptionError
		switch {
		case err == nil:
			o.Class, o.Cycles, o.Healed, o.Injected = des.OK, res.Cycles, res.Healed, res.Injected
			o.Checkpoints, o.Restores, o.Torn = res.Checkpoints, res.Restores, res.TornCommits
		case errors.As(err, &ce):
			o.Class, o.Cause, o.Cycles, o.Injected = des.Detected, ce.Cause, ce.Cycles, ce.Injected
		case errors.As(err, &se):
			o.Class, o.Cycles = des.Silent, se.Cycles
		default:
			return o, fmt.Errorf("soak precompute (request %d, %s/%s): %w", id, r.Workload, r.Scheme, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, pc, err
	}
	sim.Out = out
	for _, s := range []*Server{srv, psrv} {
		r, f, k, _ := s.PoolStats()
		pc.PoolRestores, pc.PoolColdFallbacks, pc.PoolKeyViolations = pc.PoolRestores+r, pc.PoolColdFallbacks+f, pc.PoolKeyViolations+k
	}
	return sim, pc, nil
}

// Soak runs the one-backend simulation: per-scheme breakers in front
// of one server model and, in traffic mode with cfg.Adaptive, the AIMD
// controller resizing its worker limit. ctx bounds the parallel
// precompute; the serial replay is fast and not cancellable.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.WithDefaults()
	sim, pools, err := SoakSim(ctx, cfg, 1)
	if err != nil {
		return nil, err
	}
	open := cfg.Traffic != nil
	schemes := des.Uniq(cfg.Schemes)
	if open {
		schemes = sim.Src.Schemes()
	}
	b := sim.Fleet[0]
	var ctl *resilience.AIMD
	if open && cfg.Adaptive != nil {
		ac := *cfg.Adaptive
		if ac.Start == 0 {
			ac.Start = cfg.Workers
		}
		if ac.Interval == 0 {
			ac.Interval = 10_000
		}
		if ac.LatencyTarget == 0 {
			// Above the heaviest intrinsic service cost in the catalog
			// (nginx ≈ 690k cycles), so only contention-dilated service
			// reads as congestion.
			ac.LatencyTarget = 1_048_576
		}
		ctl = resilience.NewAIMD(ac)
		b.Workers, b.Queue, b.Ctl = ctl.Limit(), 2*ctl.Limit(), ctl
	}

	// Soak-level handles; all nil (and so no-ops) without a Set.
	reg, tlog := cfg.Telemetry.Registry(), cfg.Telemetry.Log()
	sheds := reg.Counter("pacstack_soak_sheds_total", "DES arrivals shed (queue full)")
	retries := reg.Counter("pacstack_soak_retries_total", "client retries after a rejection")
	denied := reg.Counter("pacstack_soak_breaker_denied_total", "DES arrivals denied by an open breaker")
	gaveUp := reg.Counter("pacstack_soak_gave_up_total", "requests abandoned after the retry budget")
	var resizes *telemetry.Counter
	if open {
		resizes = reg.Counter("pacstack_soak_adaptive_resizes_total", "adaptive worker-limit changes")
	}
	transitions := reg.CounterVec("pacstack_resilience_breaker_transitions_total",
		"circuit-breaker state changes", "scheme", "to")
	breakers := map[string]*resilience.Breaker{}
	if cfg.BreakerThreshold > 0 {
		for _, name := range schemes {
			scheme, tr := name, transitions.Curry(name)
			breakers[name] = resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
				OnTransition: func(at uint64, from, to resilience.BreakerState) {
					tr.With(to.String()).Inc()
					tlog.Record(telemetry.EvBreaker, scheme, from.String()+"->"+to.String(), at)
				},
			})
		}
	}
	scheme := func(id int) string { return sim.Src.Reqs[id].Scheme }

	sim.Hooks = des.Hooks{
		Grant: func(_ int, ids []int) []int {
			if br := breakers[scheme(ids[0])]; br != nil && !br.Allow(sim.Now) {
				return nil
			}
			return ids
		},
		Denied: func(int, int) { denied.Inc() },
		Shed: func(_, id int) {
			sheds.Inc()
			if ctl != nil {
				ctl.ObserveShed()
			}
			tlog.Record(telemetry.EvShed, scheme(id), "queue full", sim.Now)
		},
		Done: func(a *des.Attempt) {
			if ctl != nil {
				ctl.ObserveLatency(a.Dur)
			}
			if br := breakers[scheme(a.ID)]; br != nil {
				br.Record(sim.Now, sim.Out[a.ID].Class == des.OK)
			}
		},
		Retried: func(int) { retries.Inc() },
		GaveUp:  func(int, string) { gaveUp.Inc() },
	}
	sim.Start()
	if ctl != nil {
		sim.Every(ctl.Interval(), func() {
			if limit := ctl.Tick(); limit != b.Workers {
				resizes.Inc()
				tlog.Record(telemetry.EvResize, "", fmt.Sprintf("%d->%d", b.Workers, limit), uint64(limit))
				b.Workers, b.Queue = limit, 2*limit
				sim.AdmitNext(0)
			}
		})
	}
	sim.Run()

	rep := &SoakReport{
		Seed: cfg.Seed, Workload: cfg.Workload, Schemes: cfg.Schemes,
		Clients: cfg.Clients, PerClient: cfg.Requests,
		ChaosRate: cfg.ChaosRate, Heal: cfg.Heal,
		Totals: sim.Totals, PerScheme: sim.Rows(),
		VirtualCycles: sim.Now, InFlightAtEnd: sim.InFlight(),
		BootModel: cfg.BootModel, RPVSMilli: rpvsMilli(sim.Totals.OK, sim.Now),
		PoolCounts: pools,
	}
	if open {
		rep.Workload, rep.Schemes, rep.Clients, rep.PerClient, rep.Traffic = "traffic", schemes, 0, 0, true
	}
	for _, name := range schemes {
		if br := breakers[name]; br != nil && br.Opens() > 0 {
			rep.BreakerOpens = append(rep.BreakerOpens, des.SchemeCount{Scheme: name, Count: br.Opens()})
		}
	}
	if open {
		rep.SLO = sim.Src.Eval.Report()
		rep.SLO.RPVSMilli = rep.RPVSMilli
		rep.SLO.Adaptive = ctl != nil
		if ctl != nil {
			st := ctl.Stats()
			rep.SLO.Controller = &st
		}
	}
	return rep, nil
}
