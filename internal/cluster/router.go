package cluster

import (
	"math/rand"
	"sort"

	"pacstack/internal/des"
	"pacstack/internal/resilience"
)

// Router ranks the cluster's backends for one routing decision. The
// policy is breaker-state first — closed beats half-open beats open —
// then least-loaded within one state class, with a seeded rotor
// breaking ties among equally-loaded equals, so load spreads without
// any backend being structurally favored and without routing ever
// consulting a wall clock: one seed, one decision sequence.
type Router struct {
	rng *rand.Rand
}

// NewRouter returns a router whose tie-break stream is fixed by seed.
func NewRouter(seed int64) *Router {
	return &Router{rng: rand.New(rand.NewSource(des.Mix(seed, 0x707)))}
}

// breakerStates is the router's state input over a fleet at now: each
// backend's breaker state, closed for a backend without a breaker.
func breakerStates(backends []*Backend, now uint64) func(int) resilience.BreakerState {
	return func(i int) resilience.BreakerState {
		if br := backends[i].Breaker; br != nil {
			return br.State(now)
		}
		return resilience.BreakerClosed
	}
}

// stateRank orders breaker states by routing preference.
func stateRank(s resilience.BreakerState) int {
	switch s {
	case resilience.BreakerClosed:
		return 0
	case resilience.BreakerHalfOpen:
		return 1
	default: // open
		return 2
	}
}

// Order returns the alive backend indices in routing-preference order
// at time now: backends whose breaker reads closed first, then
// half-open (cooldown expired — probe candidates), then open. Within
// one state class the candidates are ordered by load ascending (the
// router-aware load metric: a backend's in-flight + queued work);
// among equally-loaded candidates one draw from the router's seeded
// stream rotates the tie-break, so repeated decisions round-robin
// deterministically instead of pinning index 0. A nil load reads
// every backend as equally loaded, which degrades to the pure rotor.
// The first element is the routing choice; the rest are the fallback
// order. An empty alive set returns nil.
func (r *Router) Order(now uint64, alive []int, state func(int) resilience.BreakerState, load func(int) int) []int {
	if len(alive) == 0 {
		return nil
	}
	var buckets [3][]int
	for _, idx := range alive {
		rank := stateRank(state(idx))
		buckets[rank] = append(buckets[rank], idx)
	}
	rot := int(r.rng.Int31())
	out := make([]int, 0, len(alive))
	for _, b := range buckets {
		n := len(b)
		if n == 0 {
			continue
		}
		// Rotate first, then stable-sort by load: the rotor decides
		// only among equal loads.
		rotated := make([]int, 0, n)
		for i := 0; i < n; i++ {
			rotated = append(rotated, b[(i+rot)%n])
		}
		if load != nil {
			sort.SliceStable(rotated, func(i, j int) bool {
				return load(rotated[i]) < load(rotated[j])
			})
		}
		out = append(out, rotated...)
	}
	return out
}
