package traffic

import "pacstack/internal/workload"

// Canned scenarios. The numbers are calibrated against the serving
// catalog's measured per-request costs (chain ≈ 4.2k simulated
// cycles, SPEC profiles ≈ 400k, nginx ≈ 690k): with the default
// mixture the mean request costs ≈ 70k cycles, so a 4-worker pool
// saturates near 0.057 arrivals per kcycle — the default base rate of
// 0.02 runs the pool at ~35% utilization and a 10x burst pushes
// offered load to ~3.5x capacity, which is exactly the regime where a
// static admission policy collapses and an adaptive one (on a host
// with spare cores) must not.

// specNames returns the SPEC-calibrated profile names for a suite
// filter ("" = all).
func specNames(suite workload.Suite, all bool) []string {
	var names []string
	for _, b := range workload.SPEC {
		if all || b.Suite == suite {
			names = append(names, b.Name)
		}
	}
	return names
}

// DefaultClasses is the baseline heavy-tail mixture: interactive
// chain traffic dominating by count, the SPEC-calibrated profiles and
// the NGINX TLS handshake tree supplying the Pareto-ish cost tail.
// Brownout priorities mirror what an operator would declare: the
// interactive web tier is protected longest (priority 0), api and tls
// shed after batch, and the hostile overlays go first.
func DefaultClasses() []Class {
	return []Class{
		{Name: "web", Workloads: []string{"chain"}, Weight: 0.85, Priority: 0,
			SLO: SLO{P50: 16_384, P99: 262_144, ShedPermille: 50, ErrorPermille: 250}},
		{Name: "api", Workloads: specNames(workload.SPECrate, false), Weight: 0.10, Priority: 1,
			SLO: SLO{P99: 2_097_152, ShedPermille: 100, ErrorPermille: 250}},
		{Name: "batch", Workloads: specNames(workload.SPECspeed, false), Weight: 0.03, Priority: 2,
			SLO: SLO{P99: 4_194_304, ShedPermille: 200, ErrorPermille: 300}},
		{Name: "tls", Workloads: []string{"nginx"}, Weight: 0.02, Priority: 1,
			SLO: SLO{P99: 4_194_304, ShedPermille: 150, ErrorPermille: 250}},
	}
}

// HostileClasses are the adversarial overlays: slow clients that hold
// a worker slot ~40x longer than their compute justifies, and poison
// requests whose every attempt kills its victim (exercising the
// supervised respawn path and its restart budget under load). Their
// SLOs reflect their nature — poison requests are all errors by
// design, so their error budget is the full 1000‰ and their shed
// budget unconstrained (shed events count per retry attempt, so a
// permille against arrivals can legitimately exceed 1000).
func HostileClasses() []Class {
	return []Class{
		{Name: "slow", Workloads: []string{"chain"}, Weight: 0.012, Slow: 40, Priority: 3,
			SLO: SLO{P99: 16_777_216, ShedPermille: 500, ErrorPermille: 400}},
		{Name: "poison", Workloads: []string{"chain"}, Weight: 0.012, Poison: true, Priority: 3,
			SLO: SLO{ShedPermille: -1, ErrorPermille: 1000}},
	}
}

// Default returns the baseline diurnal heavy-tail model with no burst
// and no hostile classes.
func Default(seed int64) Model {
	return Model{
		Horizon: 10_000_000,
		Rate:    0.02,
		Diurnal: 0.3,
		Period:  5_000_000,
		Classes: DefaultClasses(),
		Seed:    seed,
	}
}

// ForkServerScenario is the boot-dominated regime the warm-pool gate
// measures: pure interactive chain traffic (≈4.2k intrinsic cycles per
// request) offered far above the cold-boot service capacity. With
// machine acquisition charged per request, throughput here is decided
// almost entirely by how machines are produced — full image
// construction versus snapshot-fork restore — which is exactly the
// population a fork-server exists to serve. The heavy-tail mixture
// (BurstScenario) is deliberately NOT used: SPEC and nginx requests
// bury acquisition cost under intrinsic compute, capping the
// measurable warm/cold ratio at a few x no matter how fast restores
// are. No SLO constraints: the gate grades goodput ratios, not
// objectives.
func ForkServerScenario(seed int64) Model {
	return Model{
		Horizon: 4_000_000,
		Rate:    0.7,
		Diurnal: 0.2,
		Period:  2_000_000,
		Classes: []Class{
			{Name: "interactive", Workloads: []string{"chain"}, Weight: 1,
				SLO: SLO{ShedPermille: -1, ErrorPermille: -1}},
		},
		Seed: seed,
	}
}

// BurstScenario is the canned 10x-burst scenario the traffic gate
// and the adaptive-vs-static tests run: the default diurnal mixture
// plus the hostile classes, with a 10x Poisson burst overlay holding
// for a million cycles mid-horizon.
func BurstScenario(seed int64) Model {
	m := Default(seed)
	m.Classes = append(m.Classes, HostileClasses()...)
	m.Bursts = []Burst{{At: 4_000_000, Dur: 1_000_000, Factor: 10}}
	return m
}
