// The cluster soak: the shared discrete-event replay (internal/des)
// over N backends, each with its own capacity, queue and breaker,
// behind the breaker-aware router. Closed loop, clients face the fleet
// and scheduled kills: a dead backend's machines migrate over the snap
// codec with re-seeded keys and its in-flight requests replay exactly
// once on the survivors. Open loop, a traffic.Model stream crosses a
// seeded network fault mesh, defended by hedged requests (asserting
// §4.3 key independence per hedge pair), a cluster-global retry
// budget, outlier ejection, priority brownout and vertical scaling.
// Each mechanism is a policy on the replay (fleet below).
//
// Same seed and knobs in, byte-identical ClusterReport (and telemetry
// dump) out, regardless of worker-pool width.

package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"pacstack/internal/des"
	"pacstack/internal/fault"
	"pacstack/internal/mesh"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// SoakConfig parameterises a cluster soak. Time-valued knobs are in
// simulated cycles.
type SoakConfig struct {
	// The serving knobs mean what they mean in serve.SoakConfig, with
	// the same defaults except Workers (2). Workers, Queue, Cores and
	// the breaker knobs shape each backend; BreakerThreshold < 0
	// disables the breakers (the router then sees every backend as
	// closed). BootModel and Adaptive are one-backend knobs the fleet
	// rejects.
	serve.SoakConfig

	// Backends is the fleet width. Default 3.
	Backends int

	// Kills schedules any number of backend deaths at distinct virtual
	// instants — the kill-a-backend-mid-soak and cascading-failure
	// scenarios. Each absorbed kill
	// charges the failover budget once; kills beyond the budget (or
	// with no survivor left) abandon their orphans loudly (gave-up,
	// never silent). A kill whose victim is already dead is a no-op.
	Kills []KillSpec

	// FailoverBudget is how many backend deaths the cluster will absorb
	// with migration + replay; deaths beyond it abandon the orphans
	// (accounted as gave-up — never silent). Default 1. It is charged
	// once per failover, not per machine or per replayed request.
	FailoverBudget int

	// The knobs below require traffic mode (Traffic set), which
	// excludes the kill schedule.

	// Mesh is the network fault model injected between router and
	// backends.
	Mesh *mesh.Config

	// Hedge enables hedged requests.
	Hedge *HedgeConfig

	// RetryBudget caps cluster-wide secondaries (retries + hedges) as
	// a fraction of primaries.
	RetryBudget *resilience.RetryBudgetConfig

	// Outlier enables gray-backend ejection.
	Outlier *OutlierConfig

	// Brownout enables priority brownout.
	Brownout *BrownoutConfig

	// VerticalAdaptive, when non-nil, runs one AIMD instance per
	// backend resizing its modelled core count.
	VerticalAdaptive *resilience.AIMDConfig
}

// The fleet's fixed timings, in virtual cycles.
const (
	// migrateLatency is the cost of shipping a dead backend's snapshots
	// and replaying its orphaned requests on the survivors.
	migrateLatency = 5_000
	// fallbackHedgeDelay is the hedge delay of a class with no latency
	// SLO; every hedge adds a seeded uniform draw in [0, hedgeJitter].
	fallbackHedgeDelay = 16_384
	hedgeJitter        = fallbackHedgeDelay / 4
	// brownoutInterval is the brownout controller's evaluation window.
	brownoutInterval = 20_000
)

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Backends <= 0 {
		c.Backends = 3
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.FailoverBudget == 0 {
		c.FailoverBudget = 1
	}
	c.SoakConfig = c.SoakConfig.WithDefaults()
	return c
}

// KillSpec schedules one backend death in the soak.
type KillSpec struct {
	// At is the virtual instant of the death (must be non-zero).
	At uint64 `json:"at"`
	// Backend names the victim; negative draws one of the then-alive
	// backends from the seed.
	Backend int `json:"backend"`
}

// KillRow is one executed kill's accounting in the report.
type KillRow struct {
	At        uint64 `json:"at"`
	Backend   int    `json:"backend"`
	Absorbed  bool   `json:"absorbed"` // budget charged, machines migrated, orphans replayed
	Survivor  int    `json:"survivor"` // -1 when not absorbed
	Orphans   int    `json:"orphans"`
	Replayed  int    `json:"replayed"`
	Abandoned int    `json:"abandoned"`
}

// BackendRow is the per-backend breakdown: what the router sent it,
// what came back, and its failover traffic.
type BackendRow struct {
	Backend       int    `json:"backend"`
	Routed        int    `json:"routed"`
	OK            int    `json:"ok"`
	Healed        int    `json:"healed"`
	Detected      int    `json:"detected"`
	Silent        int    `json:"silent"`
	Sheds         int    `json:"sheds"`
	BreakerDenied int    `json:"breaker_denied"`
	Replayed      int    `json:"replayed"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	MigratedIn    int    `json:"migrated_in"`
	MigratedOut   int    `json:"migrated_out"`
	Alive         bool   `json:"alive"`

	// Traffic-mode extensions (omitted in closed-loop reports).
	// Timeouts counts attempts the mesh ate on this backend's link;
	// Ejection is the outlier ejector's view; Cores/CoreStats are the
	// vertical scaler's final size and trajectory; ServiceP99 is the
	// backend's per-attempt service-duration p99.
	Timeouts   int                   `json:"timeouts,omitempty"`
	Ejection   *EjectionRow          `json:"ejection,omitempty"`
	Cores      int                   `json:"cores,omitempty"`
	CoreStats  *resilience.AIMDStats `json:"core_stats,omitempty"`
	ServiceP99 uint64                `json:"service_p99,omitempty"`
}

// ClusterReport is the deterministic end-of-run summary. For one seed
// and knob set it is byte-identical across runs, machines, and
// worker-pool widths.
type ClusterReport struct {
	Seed      int64    `json:"seed"`
	Workload  string   `json:"workload"`
	Schemes   []string `json:"schemes"`
	Backends  int      `json:"backends"`
	Clients   int      `json:"clients"`
	PerClient int      `json:"requests_per_client"`
	ChaosRate float64  `json:"chaos_rate"`
	Heal      int      `json:"heal"`

	KilledBackend int `json:"killed_backend"` // -1: nothing died (multi-kill: the last victim)

	// Kills is every executed kill in virtual-time order; Migrations
	// collects the absorbed kills' migration reports in the same order
	// (Migration keeps pointing at the first for compatibility).
	Kills      []KillRow          `json:"kills,omitempty"`
	Migrations []*MigrationReport `json:"migrations,omitempty"`

	des.Totals

	// Failover accounting. OrphansExecuting/OrphansQueued is the dead
	// backend's in-flight split at the kill; Replayed of them were
	// re-issued on survivors (exactly once each), Abandoned were
	// terminally gave-up because the failover budget or the fleet was
	// exhausted. ReplayViolations counts requests that would have been
	// replayed twice — must be zero. BudgetCharged counts failovers
	// that consumed restart budget — exactly one per absorbed kill.
	OrphansExecuting    int              `json:"orphans_executing"`
	OrphansQueued       int              `json:"orphans_queued"`
	Replayed            int              `json:"replayed"`
	Abandoned           int              `json:"abandoned"`
	ReplayViolations    int              `json:"replay_violations"`
	BudgetCharged       int              `json:"budget_charged"`
	SharedKeyViolations int              `json:"shared_key_violations"`
	Migration           *MigrationReport `json:"migration,omitempty"`

	PerBackend []BackendRow `json:"per_backend"`
	PerScheme  []des.Row    `json:"per_scheme"`

	VirtualCycles uint64 `json:"virtual_cycles"`
	InFlightAtEnd int    `json:"in_flight_at_end"`

	// Traffic-mode extensions (omitted in closed-loop reports). The
	// resilience ledger: hedges launched and won, the §4.3 hedge-pair
	// key assertion (must be zero), what the mesh ate, attempts that
	// found an empty candidate set (the distinct no_backend outcome),
	// brownout admissions refused, the retry-budget accounting with
	// its proven amplification bound, and outlier ejections.
	Traffic            bool                         `json:"traffic,omitempty"`
	SLO                *traffic.SLOReport           `json:"slo,omitempty"`
	Hedges             int                          `json:"hedges,omitempty"`
	HedgeWins          int                          `json:"hedge_wins,omitempty"`
	HedgeKeyViolations int                          `json:"hedge_key_violations,omitempty"`
	LinkDrops          int                          `json:"link_drops,omitempty"`
	Timeouts           int                          `json:"timeouts,omitempty"`
	NoBackend          int                          `json:"no_backend,omitempty"`
	BrownedOut         int                          `json:"browned_out,omitempty"`
	BrownoutMaxLevel   int                          `json:"brownout_max_level,omitempty"`
	BudgetDenied       int                          `json:"budget_denied,omitempty"`
	Budget             *resilience.RetryBudgetStats `json:"retry_budget,omitempty"`
	BudgetBound        int                          `json:"retry_budget_bound,omitempty"`
	Ejections          int                          `json:"ejections,omitempty"`
}

// Graceful reports whether the run ended cleanly: every issued request
// reached exactly one terminal state and nothing was left in flight —
// the "no request lost" identity, now across a backend death.
func (r *ClusterReport) Graceful() bool {
	return r.InFlightAtEnd == 0 && r.Terminal() == r.Issued
}

// Check enforces the failover acceptance criteria: a graceful run with
// zero silent losses, zero key-sharing across a migration, zero double
// replays, and — when a backend was killed and the fleet had budget —
// the budget charged exactly once. It returns nil when the run passes.
func (r *ClusterReport) Check() error {
	if !r.Graceful() {
		return fmt.Errorf("cluster: lost requests: issued %d, terminal %d, in flight %d",
			r.Issued, r.Terminal(), r.InFlightAtEnd)
	}
	if r.Silent > 0 {
		return fmt.Errorf("cluster: %d silent corruption(s)", r.Silent)
	}
	if r.SharedKeyViolations > 0 {
		return fmt.Errorf("cluster: %d migrated machine(s) share keys with their dead incarnation", r.SharedKeyViolations)
	}
	if r.HedgeKeyViolations > 0 {
		return fmt.Errorf("cluster: %d hedge pair(s) share PA keys", r.HedgeKeyViolations)
	}
	if r.Budget != nil && r.Budget.Granted > r.BudgetBound {
		return fmt.Errorf("cluster: %d secondaries granted, over the retry-budget bound %d", r.Budget.Granted, r.BudgetBound)
	}
	if r.ReplayViolations > 0 {
		return fmt.Errorf("cluster: %d request(s) replayed more than once", r.ReplayViolations)
	}
	absorbed := 0
	for _, k := range r.Kills {
		if k.Absorbed {
			absorbed++
			if k.Replayed != k.Orphans {
				return fmt.Errorf("cluster: kill of backend %d absorbed but replayed %d of %d orphan(s)",
					k.Backend, k.Replayed, k.Orphans)
			}
		} else if k.Abandoned != k.Orphans {
			return fmt.Errorf("cluster: kill of backend %d unabsorbed but abandoned %d of %d orphan(s)",
				k.Backend, k.Abandoned, k.Orphans)
		}
	}
	if r.BudgetCharged != absorbed {
		return fmt.Errorf("cluster: %d absorbed kill(s) but budget charged %d time(s)", absorbed, r.BudgetCharged)
	}
	if r.KilledBackend >= 0 && len(r.Kills) == 0 {
		return fmt.Errorf("cluster: backend %d killed but no kill accounting", r.KilledBackend)
	}
	return nil
}

// HedgeConfig switches hedged requests on; it has no knobs. The
// per-class hedge delay is the class's P50 target when it has one
// (hedge when the request is already slower than half its traffic
// should be), else P99/4, else fallbackHedgeDelay; every hedge adds
// a seeded jitter draw so same-instant primaries don't hedge in
// lockstep.
type HedgeConfig struct{}

// BrownoutConfig parameterises the priority brownout controller. It
// evaluates one window every brownoutInterval cycles and sheds at most
// every priority tier but the most important one.
type BrownoutConfig struct {
	// BurnPermille escalates when a window's failure burn (timeouts +
	// sheds + denials per fresh arrival), cluster-wide or on any one
	// backend, crosses it. De-escalation needs burn under half of it.
	// Default 300.
	BurnPermille int `json:"burn_permille"`
	// DenyThreshold escalates when a window sees this many
	// retry-budget denials. Default 4.
	DenyThreshold int `json:"deny_threshold"`
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.BurnPermille <= 0 {
		c.BurnPermille = 300
	}
	if c.DenyThreshold <= 0 {
		c.DenyThreshold = 4
	}
	return c
}

// validate rejects knob combinations the modes do not support.
func (c SoakConfig) validate() error {
	if c.BootModel != "" || c.Adaptive != nil {
		return fmt.Errorf("cluster: BootModel and Adaptive are one-backend soak knobs")
	}
	if c.Traffic == nil {
		for _, k := range []struct {
			set  bool
			knob string
		}{
			{c.Mesh != nil, "mesh"}, {c.Hedge != nil, "hedging"}, {c.RetryBudget != nil, "retry budget"},
			{c.Outlier != nil, "outlier ejection"}, {c.Brownout != nil, "brownout"}, {c.VerticalAdaptive != nil, "vertical scaling"},
		} {
			if k.set {
				return fmt.Errorf("cluster: %s requires traffic mode", k.knob)
			}
		}
		for _, k := range c.Kills {
			if k.At == 0 {
				return fmt.Errorf("cluster: kill at virtual instant 0")
			}
			if k.Backend >= c.Backends {
				return fmt.Errorf("cluster: kill backend %d out of range (fleet of %d)", k.Backend, c.Backends)
			}
		}
		return nil
	}
	if len(c.Kills) > 0 {
		return fmt.Errorf("cluster: traffic mode and the kill schedule are mutually exclusive")
	}
	if c.Mesh != nil {
		for idx := range c.Mesh.Links {
			if idx >= c.Backends {
				return fmt.Errorf("cluster: mesh link for backend %d out of range (fleet of %d)", idx, c.Backends)
			}
		}
	}
	return nil
}

// Soak runs the cluster simulation: the shared replay over
// cfg.Backends backends with the fleet's policies (fleet below). ctx
// bounds the parallel precompute phase; the serial replay is fast and
// not cancellable.
func Soak(ctx context.Context, cfg SoakConfig) (*ClusterReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workload := cfg.Workload
	if cfg.Traffic != nil {
		workload = "chain" // the resident machines behind the hedge key assertion
	}
	prog, err := serve.ResolveProgram(workload, nil)
	if err != nil {
		return nil, err
	}
	var net *mesh.Mesh
	if cfg.Mesh != nil {
		if net, err = mesh.New(*cfg.Mesh, cfg.Seed); err != nil {
			return nil, err
		}
	}
	sim, _, err := serve.SoakSim(ctx, cfg.SoakConfig, cfg.Backends)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(cfg, sim, fault.NewEngine(prog), net)
	if err != nil {
		return nil, err
	}
	sim.Hooks, sim.Batch = f.hooks(), !f.traffic
	sim.Start()
	kills := append([]KillSpec(nil), cfg.Kills...)
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].At < kills[j].At })
	for _, k := range kills {
		k := k
		sim.At(k.At, func() { f.err = f.kill(k) })
	}
	if f.brown != nil {
		sim.Every(brownoutInterval, f.brownoutTick)
	}
	if cfg.VerticalAdaptive != nil {
		sim.Every(f.verticalInterval, f.verticalTick)
	}
	sim.Run()
	if f.err != nil {
		return nil, f.err
	}
	return f.report(), nil
}

// fleet is the cluster's policy state over one replay: the real
// backends (resident machines, breakers), the router and, in traffic
// mode, the mesh and the resilience layers.
type fleet struct {
	cfg      SoakConfig
	sim      *des.Sim
	rep      *ClusterReport
	backends []*Backend
	router   *Router
	traffic  bool
	err      error // first kill failure; ends the run

	// Closed loop: failover state.
	replayed                        []bool
	rows                            []BackendRow // the failover columns; the rest come from the replay
	killRNG                         *rand.Rand
	replayedVec, migrationsVec      *telemetry.CounterVec
	migrateBytes, failovers, charge *telemetry.Counter

	// Traffic mode.
	net                             *mesh.Mesh
	ejector                         *Ejector
	budget                          *resilience.RetryBudget
	hedgeRNG                        *rand.Rand // nil: hedging off
	brown                           *BrownoutConfig
	shedOrder                       []int
	level, calm                     int
	winArrivals, winBad, winDenied  int
	winBkBad, winBkRouted           []int
	ctls                            []*resilience.AIMD
	verticalInterval                uint64
	svc, svcReg                     []*telemetry.Histogram // service durations: run-private, registry
	dropVec, timeoutVec, brownVec   *telemetry.CounterVec
	hedgesC, hedgeWinsC, noBackendC *telemetry.Counter
	budgetDeniedC, resizesC         *telemetry.Counter
	routedVec, shedsVec, deniedVec  *telemetry.CounterVec
	retriesC, gaveUpC               *telemetry.Counter
	tlog                            *telemetry.EventLog
}

// newFleet boots the fleet for sim: per backend a real Backend with a
// resident machine per scheme (migration and the hedge key assertion
// need live key domains) and its breaker, plus the mode's controllers.
func newFleet(cfg SoakConfig, sim *des.Sim, eng *fault.Engine, net *mesh.Mesh) (*fleet, error) {
	reg, tlog := cfg.Telemetry.Registry(), cfg.Telemetry.Log()
	f := &fleet{
		cfg: cfg, sim: sim, router: NewRouter(cfg.Seed), traffic: cfg.Traffic != nil, net: net, tlog: tlog,
		rep: &ClusterReport{
			Seed: cfg.Seed, Workload: cfg.Workload, Schemes: cfg.Schemes,
			Backends: cfg.Backends, Clients: cfg.Clients, PerClient: cfg.Requests,
			ChaosRate: cfg.ChaosRate, Heal: cfg.Heal, KilledBackend: -1,
		},
		rows:        make([]BackendRow, cfg.Backends),
		winBkBad:    make([]int, cfg.Backends),
		winBkRouted: make([]int, cfg.Backends),
		routedVec:   reg.CounterVec("pacstack_cluster_routed_total", "requests admitted per backend", "backend"),
		shedsVec:    reg.CounterVec("pacstack_cluster_sheds_total", "arrivals shed per backend (queue full)", "backend"),
		deniedVec:   reg.CounterVec("pacstack_cluster_breaker_denied_total", "arrivals denied per backend breaker", "backend"),
		retriesC:    reg.Counter("pacstack_cluster_retries_total", "client retries after a rejection"),
		gaveUpC:     reg.Counter("pacstack_cluster_gave_up_total", "requests abandoned after the retry budget"),
	}
	transVec := reg.CounterVec("pacstack_cluster_breaker_transitions_total", "backend breaker state changes", "backend", "to")
	schemes := cfg.Schemes
	if f.traffic {
		schemes = sim.Src.Schemes()
		f.rep.Workload, f.rep.Schemes, f.rep.Clients, f.rep.PerClient, f.rep.Traffic = "traffic", schemes, 0, 0, true
		if err := f.initTraffic(reg); err != nil {
			return nil, err
		}
	} else {
		f.replayed = make([]bool, len(sim.Src.Reqs))
		f.killRNG = rand.New(rand.NewSource(des.Mix(cfg.Seed, 0xdead)))
		f.replayedVec = reg.CounterVec("pacstack_cluster_replayed_total", "orphaned requests replayed per adopting backend", "backend")
		f.migrationsVec = reg.CounterVec("pacstack_cluster_migrations_total", "machine migrations per backend", "backend", "direction")
		f.migrateBytes = reg.Counter("pacstack_cluster_migrate_bytes_total", "snapshot image bytes shipped in failovers")
		f.failovers = reg.Counter("pacstack_cluster_failovers_total", "backend deaths absorbed by migration and replay")
		f.charge = reg.Counter("pacstack_cluster_budget_charges_total", "failover restart-budget charges")
	}
	machines := des.Uniq(schemes)
	sort.Strings(machines)
	var err error
	f.backends, err = bootFleet(cfg.Backends, cfg.Seed, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Telemetry, transVec, eng, machines)
	return f, err
}

// initTraffic builds the open-loop mode's resilience layers and
// handles.
func (f *fleet) initTraffic(reg *telemetry.Registry) error {
	cfg := f.cfg
	f.dropVec = reg.CounterVec("pacstack_cluster_link_drops_total", "messages the mesh ate per backend", "backend", "cause")
	f.timeoutVec = reg.CounterVec("pacstack_cluster_timeouts_total", "attempts declared lost per backend", "backend")
	ejectVec := reg.CounterVec("pacstack_cluster_ejections_total", "outlier ejections per backend", "backend")
	svcVec := reg.HistogramVec("pacstack_cluster_service_cycles", "per-attempt service duration by backend", traffic.LatencyBounds, "backend")
	f.brownVec = reg.CounterVec("pacstack_cluster_brownout_total", "arrivals browned out per class", "class")
	f.hedgesC = reg.Counter("pacstack_cluster_hedges_total", "hedged attempts launched")
	f.hedgeWinsC = reg.Counter("pacstack_cluster_hedge_wins_total", "requests whose hedge finished first")
	f.noBackendC = reg.Counter("pacstack_cluster_no_backend_total", "routing decisions with an empty candidate set")
	f.budgetDeniedC = reg.Counter("pacstack_cluster_retry_budget_denied_total", "secondary attempts refused by the retry budget")
	f.resizesC = reg.Counter("pacstack_cluster_core_resizes_total", "vertical core-count changes")
	for i := 0; i < cfg.Backends; i++ {
		f.svc = append(f.svc, telemetry.NewHistogram(traffic.LatencyBounds))
		f.svcReg = append(f.svcReg, svcVec.With(fmt.Sprint(i)))
	}
	if cfg.RetryBudget != nil {
		f.budget = resilience.NewRetryBudget(*cfg.RetryBudget)
	}
	if cfg.Outlier != nil {
		f.ejector = NewEjector(cfg.Backends, *cfg.Outlier, func(bk int, at uint64, cause string) {
			ejectVec.With(fmt.Sprint(bk)).Inc()
			f.tlog.Record(telemetry.EvEject, fmt.Sprintf("backend-%d", bk), cause, at)
		})
	}
	if cfg.Hedge != nil {
		f.hedgeRNG = rand.New(rand.NewSource(des.Mix(cfg.Seed, 0x4ed6e)))
	}
	if cfg.Brownout != nil {
		// The shed order is the distinct priority tiers, least
		// important first; level L sheds the top L tiers at admission.
		b := cfg.Brownout.withDefaults()
		f.brown = &b
		seen := map[int]bool{}
		for _, c := range cfg.Traffic.Classes {
			if !seen[c.Priority] {
				seen[c.Priority] = true
				f.shedOrder = append(f.shedOrder, c.Priority)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(f.shedOrder)))
	}
	if cfg.VerticalAdaptive != nil {
		v := *cfg.VerticalAdaptive
		if v.Start == 0 {
			v.Start = f.sim.Fleet[0].Cores
		}
		if v.Interval == 0 {
			v.Interval = 20_000
		}
		if v.LatencyTarget == 0 {
			// The vertical controller's "latency" samples are per-
			// completion idle permille: a sample over the target means
			// the backend held more cores than the work needed.
			v.LatencyTarget = 600
		}
		if v.BadDen == 0 {
			v.BadNum, v.BadDen = 1, 2
		}
		f.verticalInterval = v.Interval
		for _, b := range f.sim.Fleet {
			ctl := resilience.NewAIMD(v)
			f.ctls = append(f.ctls, ctl)
			b.Cores, b.Ctl = ctl.Limit(), ctl
		}
	}
	return nil
}

func (f *fleet) scheme(id int) string { return f.sim.Src.Reqs[id].Scheme }

// loadOf is the router's load metric: executing plus queued attempts.
func (f *fleet) loadOf(idx int) int {
	b := f.sim.Fleet[idx]
	return b.Busy + len(b.Fifo)
}

// candidates is the routable fleet now: alive, not ejected, not the
// excluded backend.
func (f *fleet) candidates(exclude int) []int {
	var out []int
	for i, b := range f.backends {
		if b.Alive() && i != exclude && !f.ejector.Ejected(i, f.sim.Now) {
			out = append(out, i)
		}
	}
	return out
}

// hooks wires the fleet's policies into the replay.
func (f *fleet) hooks() des.Hooks {
	sim, rep, tlog := f.sim, f.rep, f.tlog
	h := des.Hooks{
		Route: func(id, exclude int) int {
			order := f.router.Order(sim.Now, f.candidates(exclude), breakerStates(f.backends, sim.Now), f.loadOf)
			if len(order) == 0 {
				return -1
			}
			return order[0]
		},
		NoBackend: func(id, attempt int) int {
			if !f.traffic {
				return f.cfg.Retries // no fleet left: the request can never execute
			}
			rep.NoBackend++
			f.noBackendC.Inc()
			f.winBad++
			tlog.Record(telemetry.EvShed, f.scheme(id), "no_backend", sim.Now)
			return attempt
		},
		Grant: func(bk int, ids []int) []int {
			br := f.backends[bk].Breaker
			switch {
			case br == nil:
				return ids
			case f.traffic:
				if !br.Allow(sim.Now) {
					return nil
				}
				return ids
			}
			// Same-instant arrivals race for a half-open breaker through
			// the seeded probe arbitration, not through heap order.
			u := make([]uint64, len(ids))
			for i, id := range ids {
				u[i] = uint64(id)
			}
			var granted []int
			for _, id := range br.GrantProbes(sim.Now, u) {
				granted = append(granted, int(id))
			}
			return granted
		},
		Denied: func(bk, id int) {
			f.deniedVec.With(fmt.Sprint(bk)).Inc()
			f.winBad++
			f.winBkBad[bk]++
		},
		Routed: func(bk int) {
			f.routedVec.With(fmt.Sprint(bk)).Inc()
			f.winBkRouted[bk]++
		},
		Shed: func(bk, id int) {
			f.winBkRouted[bk]--
			f.shedsVec.With(fmt.Sprint(bk)).Inc()
			f.winBad++
			f.winBkBad[bk]++
			tlog.Record(telemetry.EvShed, f.scheme(id), fmt.Sprintf("backend-%d queue full", bk), sim.Now)
		},
		Done:    f.done,
		Retried: func(int) { f.retriesC.Inc() },
		GaveUp: func(id int, detail string) {
			f.gaveUpC.Inc()
			if f.traffic {
				tlog.Record(telemetry.EvRequestDone, f.scheme(id), detail, sim.Now)
			}
		},
	}
	if !f.traffic {
		return h
	}
	h.Arrive = f.arrive
	h.Started = func(a *des.Attempt) {
		f.svc[a.Backend].Observe(a.Dur)
		f.svcReg[a.Backend].Observe(a.Dur)
	}
	h.Cancelled = func(a *des.Attempt) {
		// The losing attempt still teaches the ejector about its link:
		// the late response eventually arrives, and its timing reveals
		// the link's round trip. Without this a gray backend is never
		// ejected — every request it slow-walks is rescued by a hedge
		// and the ejector starves for the very samples that would
		// condemn the link. Only the known link latency is charged, so
		// a healthy backend that merely lost a close race observes its
		// true baseline, not a queueing artifact.
		if in := f.sim.Intrinsic(a.ID); in > 0 {
			f.ejector.Observe(a.Backend, sim.Now, false, int((a.LinkLat+in)*1000/in))
		}
	}
	h.LostTimeout = func(a *des.Attempt) {
		rep.Timeouts++
		f.timeoutVec.With(fmt.Sprint(a.Backend)).Inc()
		f.winBad++
		f.winBkBad[a.Backend]++
		if br := f.backends[a.Backend].Breaker; br != nil {
			br.Record(sim.Now, false)
		}
		f.ejector.Observe(a.Backend, sim.Now, true, 0)
	}
	if f.net != nil {
		h.Link = func(bk int) (uint64, bool) {
			v := f.net.Sample(bk, sim.Now)
			if v.Drop {
				// The message vanished: no backend resource is held, the
				// sender learns nothing until the timeout fires.
				rep.LinkDrops++
				f.dropVec.With(fmt.Sprint(bk), v.Cause.String()).Inc()
				tlog.Record(telemetry.EvLinkDrop, fmt.Sprintf("backend-%d", bk), v.Cause.String(), sim.Now)
			}
			return v.Latency, v.Drop
		}
	}
	if f.budget != nil {
		h.SpendRetry = f.spendSecondary
	}
	if f.hedgeRNG != nil {
		h.Launched = func(a *des.Attempt) {
			sim.Push(des.Event{At: sim.Now + f.hedgeDelay(a.ID), Kind: des.Hedge, ID: a.ID, Tok: a.Tok})
		}
		h.Hedge = f.hedgeAttempt
	}
	return h
}

// done accounts a winning completion on its backend: failover replays,
// hedge wins, breaker health, and the ejector's and the vertical
// scaler's samples.
func (f *fleet) done(a *des.Attempt) {
	sim, bk := f.sim, a.Backend
	if f.traffic && a.Hedged {
		f.rep.HedgeWins++
		f.hedgeWinsC.Inc()
	}
	if !f.traffic && f.replayed[a.ID] {
		f.rows[bk].Replayed++
		f.replayedVec.With(fmt.Sprint(bk)).Inc()
	}
	if br := f.backends[bk].Breaker; br != nil {
		br.Record(sim.Now, sim.Out[a.ID].Class == des.OK)
	}
	// Ejector dilation sample: how much the attempt's occupancy
	// (contention + link) exceeded the request's intrinsic cost.
	if in := f.sim.Intrinsic(a.ID); in > 0 {
		f.ejector.Observe(bk, sim.Now, false, int(a.Dur*1000/in))
	}
	if f.ctls != nil {
		b := sim.Fleet[bk]
		f.ctls[bk].ObserveLatency(uint64((b.Cores - b.Busy) * 1000 / b.Cores))
	}
}

// arrive admits a fresh arrival: it earns retry budget and, under
// brownout, a class in a shed tier is refused at the door — terminal,
// recorded per class, SLO-exempt.
func (f *fleet) arrive(id int) bool {
	f.winArrivals++
	if f.budget != nil {
		f.budget.Earn()
	}
	class := f.sim.Src.Reqs[id].Class
	c := f.cfg.Traffic.Classes[class]
	if f.level == 0 || c.Priority < f.shedOrder[f.level-1] {
		return true
	}
	f.rep.BrownedOut++
	f.brownVec.With(c.Name).Inc()
	f.sim.Src.Eval.Brownout(class)
	f.sim.Refuse(id)
	return false
}

// spendSecondary charges one secondary attempt (retry or hedge) to the
// cluster-global retry budget; under a retry storm the budget is the
// binding constraint, and a denied secondary is loud, not a silent
// wait.
func (f *fleet) spendSecondary() bool {
	if f.budget.Spend() {
		return true
	}
	f.rep.BudgetDenied++
	f.budgetDeniedC.Inc()
	f.winDenied++
	return false
}

// hedgeDelay is the class's hedge delay — its P50 target when it has
// one, else P99/4, else fallbackHedgeDelay — plus a seeded jitter
// draw so same-instant primaries don't hedge in lockstep.
func (f *fleet) hedgeDelay(id int) uint64 {
	slo := f.cfg.Traffic.Classes[f.sim.Src.Reqs[id].Class].SLO
	d := uint64(fallbackHedgeDelay)
	if slo.P50 > 0 {
		d = slo.P50
	} else if slo.P99 > 0 {
		d = slo.P99 / 4
	}
	return d + uint64(f.hedgeRNG.Int63n(hedgeJitter+1))
}

// hedgeAttempt launches a live primary's speculative duplicate on the
// next-ranked other backend and asserts the §4.3 hedge precondition:
// the pair's backends must not share PA keys for the request's scheme
// (an attacker observing one execution must not be able to forge the
// other's authenticated call stack).
func (f *fleet) hedgeAttempt(primary *des.Attempt) {
	if len(f.candidates(primary.Backend)) == 0 {
		return // nowhere independent to hedge to
	}
	if f.budget != nil && !f.spendSecondary() {
		return
	}
	a := f.sim.Submit(primary.ID, primary.No, primary.Backend, true)
	if a == nil {
		return // hedge rejected; the primary races on alone
	}
	f.rep.Hedges++
	f.hedgesC.Inc()
	scheme := f.scheme(primary.ID)
	if pa, pb := f.backends[primary.Backend].machine(scheme), f.backends[a.Backend].machine(scheme); pa != nil && pb != nil &&
		supervise.SharedKeys(pa.Proc, pb.Proc) {
		f.rep.HedgeKeyViolations++
	}
	f.tlog.Record(telemetry.EvHedge, scheme, fmt.Sprintf("backend-%d->backend-%d", primary.Backend, a.Backend), f.sim.Now)
}

// machine returns the backend's first resident machine of the scheme.
func (b *Backend) machine(scheme string) *Machine {
	for _, m := range b.Machines() {
		if m.Scheme == scheme {
			return m
		}
	}
	return nil
}

// kill executes one scheduled backend death now. Each absorbed kill
// charges the failover budget once; a kill past the budget (or with no
// survivor) abandons its orphans loudly. Re-orphaning is legal — a
// request replayed after one kill can land on a backend the next kill
// takes down, and it replays again — but within one kill every orphan
// replays exactly once.
func (f *fleet) kill(spec KillSpec) error {
	sim, rep := f.sim, f.rep
	kb := spec.Backend
	if kb < 0 {
		alive := f.candidates(-1)
		if len(alive) == 0 {
			return nil
		}
		kb = alive[f.killRNG.Intn(len(alive))]
	}
	if !f.backends[kb].Kill() {
		return nil // already dead
	}
	rep.KilledBackend = kb
	krow := KillRow{At: sim.Now, Backend: kb, Survivor: -1}
	f.tlog.Record(telemetry.EvKill, fmt.Sprintf("backend-%d", kb), "killed mid-soak", sim.Now)

	// Orphans: executing attempts (their pending completions are
	// voided) by request id, then queued ones in FIFO order.
	executing, queued := sim.Evict(kb)
	rep.OrphansExecuting += len(executing)
	rep.OrphansQueued += len(queued)
	orphans := append(executing, queued...)
	krow.Orphans = len(orphans)

	alive := f.candidates(-1)
	if rep.BudgetCharged >= f.cfg.FailoverBudget || len(alive) == 0 {
		// Nothing absorbs this death: orphans end terminally, loudly.
		for _, id := range orphans {
			rep.Abandoned++
			sim.GiveUp(id, "")
			f.tlog.Record(telemetry.EvRequestDone, f.scheme(id), "abandoned:failover-budget", sim.Now)
		}
		krow.Abandoned = len(orphans)
		rep.Kills = append(rep.Kills, krow)
		return nil
	}
	rep.BudgetCharged++
	f.charge.Inc()
	f.failovers.Inc()
	krow.Absorbed = true

	// Snapshot shipping: the dead backend's machines move to the best
	// survivor the router can name, with re-seeded keys.
	survivor := f.router.Order(sim.Now, alive, breakerStates(f.backends, sim.Now), f.loadOf)[0]
	krow.Survivor = survivor
	mig, err := MigrateMachines(f.backends[kb], f.backends[survivor])
	if err != nil {
		return err
	}
	if rep.Migration == nil {
		rep.Migration = mig
	}
	rep.Migrations = append(rep.Migrations, mig)
	rep.SharedKeyViolations += mig.SharedKeyViolations
	f.rows[kb].MigratedOut += len(mig.Machines)
	f.rows[survivor].MigratedIn += len(mig.Machines)
	mig.record(f.migrateBytes, f.migrationsVec, f.tlog)
	f.tlog.Record(telemetry.EvFailover, fmt.Sprintf("backend-%d", kb),
		fmt.Sprintf("survivor backend-%d, %d machine(s), %d orphan(s)", survivor, len(mig.Machines), len(orphans)), sim.Now)

	// Exactly-once replay per failover: every orphan of THIS kill is
	// re-issued on the survivors after the migration latency. Its
	// outcome was precomputed once and is charged once, at its single
	// terminal completion — a failover hop never multiplies the
	// supervise restart budget.
	seen := make(map[int]bool, len(orphans))
	for _, id := range orphans {
		if seen[id] {
			rep.ReplayViolations++
			continue
		}
		seen[id] = true
		f.replayed[id] = true
		rep.Replayed++
		krow.Replayed++
		sim.Push(des.Event{At: sim.Now + migrateLatency, Kind: des.Issue, ID: id})
	}
	rep.Kills = append(rep.Kills, krow)
	return nil
}

// brownoutTick closes one brownout window. Hot signals: retry-budget
// denials, failure burn (cluster-wide or on any one backend), or
// sustained fleet pressure — every worker busy with work still queued
// behind, or a deep queue. The pressure term matters because a deep
// queue is overload the shed/deny counters cannot see yet; without it
// the controller de-escalates the moment shedding the lowest tier
// quiets one window, while the fleet is still drowning in admitted
// work.
func (f *fleet) brownoutTick() {
	bc, now := f.brown, f.sim.Now
	burn := func(bad, n int) bool { return n > 0 && bad*1000 > n*bc.BurnPermille }
	// Capacity counts only routable backends: an ejected backend's idle
	// workers are not capacity the router can use.
	queued, busy, capacity := 0, 0, 0
	for bk, b := range f.sim.Fleet {
		queued += len(b.Fifo)
		busy += b.Busy
		if !f.ejector.Ejected(bk, now) {
			capacity += b.Workers
		}
	}
	pressured := capacity > 0 && ((busy >= capacity && queued > 0) || queued*2 >= capacity)
	hot := f.winDenied >= bc.DenyThreshold || burn(f.winBad, f.winArrivals) || pressured
	for bk := range f.sim.Fleet {
		if f.winBkRouted[bk] >= 8 && burn(f.winBkBad[bk], f.winBkRouted[bk]) {
			hot = true
		}
	}
	// Calm means recovered, not merely quiet: utilization at half
	// capacity or below with nothing queued.
	calm := !hot && f.winDenied == 0 && busy*2 <= capacity && queued == 0 &&
		!(f.winArrivals > 0 && f.winBad*1000*2 > f.winArrivals*bc.BurnPermille)
	switch {
	case hot:
		f.calm = 0
		if f.level < len(f.shedOrder)-1 { // never shed the most important tier
			f.level++
			if f.level > f.rep.BrownoutMaxLevel {
				f.rep.BrownoutMaxLevel = f.level
			}
			f.tlog.Record(telemetry.EvBrownout, "", fmt.Sprintf("level %d->%d", f.level-1, f.level), now)
		}
	case calm && f.level > 0:
		// De-escalate only after a streak of calm windows: flapping the
		// level re-admits the heavy tiers exactly when they hurt most.
		if f.calm++; f.calm >= 3 {
			f.calm = 0
			f.level--
			f.tlog.Record(telemetry.EvBrownout, "", fmt.Sprintf("level %d->%d", f.level+1, f.level), now)
		}
	}
	f.winArrivals, f.winBad, f.winDenied = 0, 0, 0
	for i := range f.winBkBad {
		f.winBkBad[i], f.winBkRouted[i] = 0, 0
	}
}

// verticalTick closes one vertical-scaling window on every backend.
func (f *fleet) verticalTick() {
	for bk, b := range f.sim.Fleet {
		if limit := f.ctls[bk].Tick(); limit != b.Cores {
			f.resizesC.Inc()
			f.tlog.Record(telemetry.EvResize, fmt.Sprintf("backend-%d", bk),
				fmt.Sprintf("%d->%d cores", b.Cores, limit), uint64(limit))
			b.Cores = limit
		}
	}
}

// report assembles the end-of-run summary.
func (f *fleet) report() *ClusterReport {
	sim, rep := f.sim, f.rep
	rep.Totals = sim.Totals
	rep.PerScheme = sim.Rows()
	rep.VirtualCycles = sim.Now
	rep.InFlightAtEnd = sim.InFlight()
	for bk, b := range sim.Fleet {
		row := f.rows[bk]
		row.Backend, row.Alive = bk, f.backends[bk].Alive()
		row.Routed, row.OK, row.Healed, row.Detected, row.Silent = b.Routed, b.OK, b.Healed, b.Detected, b.Silent
		row.Sheds, row.BreakerDenied, row.Timeouts = b.Sheds, b.Denied, b.Timeouts
		if br := f.backends[bk].Breaker; br != nil {
			row.BreakerOpens = br.Opens()
		}
		if f.traffic {
			if ej := f.ejector.Row(bk); ej.Ejections > 0 || ej.ErrEWMA > 0 || ej.DilationEWMA != 0 {
				row.Ejection = &ej
				rep.Ejections += ej.Ejections
			}
			row.Cores = b.Cores
			if f.ctls != nil {
				st := f.ctls[bk].Stats()
				row.CoreStats = &st
			}
			row.ServiceP99 = f.svc[bk].Quantile(99, 100)
		}
		rep.PerBackend = append(rep.PerBackend, row)
	}
	if f.traffic {
		rep.SLO = sim.Src.Eval.Report()
	}
	if f.budget != nil {
		st := f.budget.Stats()
		rep.Budget = &st
		rep.BudgetBound = f.budget.Bound(st.Primaries)
	}
	return rep
}
