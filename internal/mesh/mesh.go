// Package mesh is the seeded, clock-free network fault model for the
// cluster tier: per-(router,backend) link state — added latency
// distributions, message-drop probability, partitions with heal
// times, and flapping — that the cluster soak injects into its
// virtual-time replay and the live daemon exposes over /v1/mesh.
//
// The gray failures modeled here are the ones a binary liveness
// signal never sees: a backend that answers, slowly; a link that
// drops one message in ten; a partition that heals before any human
// notices; a flapping link that oscillates faster than a breaker's
// cooldown. The router's breaker treats a backend as up or down —
// the mesh is what forces the resilience layer (hedged requests,
// outlier ejection, priority brownout) to earn its keep in between.
//
// Determinism contract: partition and flap state are pure functions
// of virtual time, and the stochastic draws (drop, jitter) come from
// one seeded per-link stream consumed only from the serial replay —
// same seed, same fault sequence, byte-for-byte, at any worker-pool
// width. Nothing in here reads a wall clock.
package mesh

import (
	"fmt"
	"math/rand"
	"sort"
)

// Window is one scheduled outage: the link is down for [At, At+Dur)
// and heals at At+Dur.
type Window struct {
	At  uint64 `json:"at"`
	Dur uint64 `json:"dur"`
}

// LinkConfig describes one (router,backend) link's fault behavior.
// The zero value is a perfect link.
type LinkConfig struct {
	// Latency is the base added round-trip latency in virtual cycles;
	// Jitter is the bound on an additional seeded uniform draw per
	// message, so observed latency is Latency + U[0, Jitter].
	Latency uint64 `json:"latency,omitempty"`
	Jitter  uint64 `json:"jitter,omitempty"`

	// Drop is the per-message drop probability in [0, 1). A dropped
	// message vanishes: the sender learns nothing until its timeout.
	Drop float64 `json:"drop,omitempty"`

	// Partitions are scheduled outages with heal times. While
	// partitioned, every message is dropped.
	Partitions []Window `json:"partitions,omitempty"`

	// FlapPeriod/FlapDown model a flapping link: within each period of
	// FlapPeriod cycles the link is down for the first FlapDown of
	// them — a deterministic square wave, so flap state is a pure
	// function of time. FlapPeriod 0 disables flapping.
	FlapPeriod uint64 `json:"flap_period,omitempty"`
	FlapDown   uint64 `json:"flap_down,omitempty"`

	// Down forces the link down until cleared — the live /v1/mesh
	// operator switch; the soak expresses outages as Partitions.
	Down bool `json:"down,omitempty"`
}

// Validate checks a link's shape.
func (l *LinkConfig) Validate() error {
	if l.Drop < 0 || l.Drop >= 1 {
		return fmt.Errorf("mesh: drop probability %v outside [0, 1)", l.Drop)
	}
	if l.FlapPeriod > 0 && l.FlapDown >= l.FlapPeriod {
		return fmt.Errorf("mesh: flap down %d must be shorter than the period %d", l.FlapDown, l.FlapPeriod)
	}
	if l.FlapPeriod == 0 && l.FlapDown > 0 {
		return fmt.Errorf("mesh: flap down without a flap period")
	}
	for i, w := range l.Partitions {
		if w.Dur == 0 {
			return fmt.Errorf("mesh: partition %d has zero duration", i)
		}
	}
	return nil
}

// Config is a whole mesh: one link per backend index. Absent indices
// get perfect links.
type Config struct {
	Links map[int]LinkConfig `json:"links"`
}

// Validate checks every link.
func (c *Config) Validate() error {
	for idx, l := range c.Links {
		if idx < 0 {
			return fmt.Errorf("mesh: link for negative backend %d", idx)
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("backend %d: %w", idx, err)
		}
	}
	return nil
}

// Cause classifies why the mesh faulted a message.
type Cause int

const (
	CauseNone      Cause = iota
	CauseDrop            // seeded per-message loss
	CausePartition       // scheduled outage window
	CauseFlap            // flap square wave's down phase
	CauseDown            // operator-forced down
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseDrop:
		return "drop"
	case CausePartition:
		return "partition"
	case CauseFlap:
		return "flap"
	case CauseDown:
		return "down"
	default:
		return "none"
	}
}

// Verdict is the mesh's ruling on one message.
type Verdict struct {
	// Drop reports the message was lost; Cause says why.
	Drop  bool
	Cause Cause
	// Latency is the added round-trip latency for a delivered message.
	Latency uint64
}

// Mesh is the instantiated fault model. Up is safe to call anywhere
// (pure function of time); Sample consumes seeded per-link streams
// and must be called from one goroutine in replay order — the serial
// phase of the soak DES, exactly where the other seeded draws live.
type Mesh struct {
	links map[int]LinkConfig
	rngs  map[int]*rand.Rand
	seed  int64
}

// New builds a mesh from a validated config. Per-link streams derive
// from mix(seed, backend), so link identity — never sampling order
// across links — addresses the entropy.
func New(cfg Config, seed int64) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mesh{links: make(map[int]LinkConfig, len(cfg.Links)), rngs: make(map[int]*rand.Rand, len(cfg.Links)), seed: seed}
	for idx, l := range cfg.Links {
		m.links[idx] = l
		m.rngs[idx] = rand.New(rand.NewSource(mix(seed, int64(idx)+0x11e5)))
	}
	return m, nil
}

// Link returns backend idx's link config (the zero, perfect link when
// none was configured).
func (m *Mesh) Link(idx int) LinkConfig {
	if m == nil {
		return LinkConfig{}
	}
	return m.links[idx]
}

// Backends lists the configured link indices, sorted.
func (m *Mesh) Backends() []int {
	if m == nil {
		return nil
	}
	out := make([]int, 0, len(m.links))
	for idx := range m.links {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// outage returns the deterministic down-state of the link at now:
// operator switch, partition window, or flap phase.
func outage(l LinkConfig, now uint64) Cause {
	if l.Down {
		return CauseDown
	}
	for _, w := range l.Partitions {
		if now >= w.At && now-w.At < w.Dur {
			return CausePartition
		}
	}
	if l.FlapPeriod > 0 && now%l.FlapPeriod < l.FlapDown {
		return CauseFlap
	}
	return CauseNone
}

// Up reports whether backend idx's link is passing messages at now —
// a pure function of (config, now), safe from any goroutine. A nil
// mesh is all-up.
func (m *Mesh) Up(idx int, now uint64) bool {
	if m == nil {
		return true
	}
	return outage(m.links[idx], now) == CauseNone
}

// Sample rules on one message to backend idx at now. Serial-replay
// only: the drop and jitter draws consume the link's seeded stream.
// A nil mesh delivers everything instantly.
func (m *Mesh) Sample(idx int, now uint64) Verdict {
	if m == nil {
		return Verdict{}
	}
	l, ok := m.links[idx]
	if !ok {
		return Verdict{}
	}
	if c := outage(l, now); c != CauseNone {
		return Verdict{Drop: true, Cause: c}
	}
	rng := m.rngs[idx]
	if l.Drop > 0 && rng.Float64() < l.Drop {
		return Verdict{Drop: true, Cause: CauseDrop}
	}
	v := Verdict{Latency: l.Latency}
	if l.Jitter > 0 {
		v.Latency += uint64(rng.Int63n(int64(l.Jitter) + 1))
	}
	return v
}

// Gray is the canned gray-backend link the chaos-mesh gate (cluster.MeshGate) runs: a
// backend that still answers — slowly, lossily — without ever looking
// dead to a liveness probe. The base added round trip sits exactly at
// the canned web class's p99 target (262_144 cycles), so every
// interactive request that rides this link without a hedge is a
// structural p99 violation, and the drop rate forces timeouts and
// retries without ever tripping a breaker outright.
func Gray() LinkConfig {
	return LinkConfig{
		Latency: 262_144,
		Jitter:  65_536,
		Drop:    0.08,
	}
}

// mix folds values into one seed (splitmix64 finalizer) — the same
// derivation idiom the serving and cluster layers use.
func mix(a, b int64) int64 {
	z := uint64(a)*0x9e3779b97f4a7c15 + uint64(b)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
