package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/mesh"
	"pacstack/internal/pa"
	"pacstack/internal/qarma"
	"pacstack/internal/resilience"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// The ladder times the public entry point of each layer on the
// workload's own request shapes (cases), one rung at a time with
// nothing else running, and reports each rung's median with its
// spread. Rungs that only make sense for another workload's path still
// run, on this workload's programs, so every traced run reports the
// full set.

// sinks keep the compiler from discarding measured calls.
var (
	sinkU64  uint64
	sinkAny  any
	sinkMesh mesh.Verdict
)

type ladder struct {
	r     *runner
	cases []*rig
	per   time.Duration // budget per rung
}

// minSamples is the fewest samples a rung reports a median of.
const minSamples = 7

// maxRungErrors is how many failed samples a rung tolerates: each is
// counted as a failed operation and skipped.
const maxRungErrors = 10

// maxSamples is the most samples a rung takes; leaseSamples is the
// most pool.lease_us takes. Each lease runs pool.Reset's key-sharing
// probe, which refuses about one fresh key set in 65,536 (README.md,
// "Known program defects"); a refusal counts as a failed operation.
const (
	maxSamples   = 2000
	leaseSamples = 200
)

// measure collects samples from sample() until the rung's budget is
// spent (and at least minSamples are in), then reports their median.
func (l *ladder) measure(name, unit string, sample func(i int) (float64, error)) error {
	return l.measureUpTo(name, unit, maxSamples, sample)
}

// measureUpTo is measure with at most max samples.
func (l *ladder) measureUpTo(name, unit string, max int, sample func(i int) (float64, error)) error {
	var xs []float64
	errs := 0
	start := time.Now()
	for i := 0; len(xs) < minSamples || (time.Since(start) < l.per && len(xs) < max); i++ {
		v, err := sample(i)
		if err != nil {
			l.r.check(false, "ladder %s: %v", name, err)
			if errs++; errs > maxRungErrors {
				return fmt.Errorf("ladder %s: %w", name, err)
			}
			continue
		}
		xs = append(xs, v)
	}
	l.r.put(name, median(xs), unit)
	l.r.note("ladder %-28s %12.6g %-5s IQR %5.1f%%  n=%d", name, median(xs), unit, 100*spread(xs), len(xs))
	return nil
}

// batch times op in batches of about a millisecond; a sample is the
// batch's wall time per op, divided by scale nanoseconds per unit.
func (l *ladder) batch(name, unit string, scale float64, op func(i int) error) error {
	n := 1
	for i := 0; ; n *= 2 { // size the batch
		t := time.Now()
		for j := 0; j < n; j++ {
			if err := op(i); err != nil {
				return fmt.Errorf("ladder %s: %w", name, err)
			}
			i++
		}
		if time.Since(t) >= time.Millisecond || n >= 1<<20 {
			break
		}
	}
	next := 0
	return l.measure(name, unit, func(int) (float64, error) {
		t := time.Now()
		for j := 0; j < n; j++ {
			if err := op(next); err != nil {
				return 0, err
			}
			next++
		}
		return float64(time.Since(t).Nanoseconds()) / float64(n) / scale, nil
	})
}

// boot cold-boots a hardened process of the case under a fresh kernel,
// as serve's cold path does.
func (c *rig) boot(seed int64) (*kernel.Process, error) {
	k := kernel.New(pa.DefaultConfig())
	k.Seed(seed)
	p, err := c.img.Boot(k)
	if err != nil {
		return nil, err
	}
	fault.Harden(scheme, p)
	return p, nil
}

func instrsOf(p *kernel.Process) uint64 {
	var n uint64
	for _, t := range p.Tasks {
		n += t.M.Instrs
	}
	return n
}

// runLadder times every rung on the cases within about d.
func runLadder(r *runner, cases []servedCase, d time.Duration) error {
	l := &ladder{r: r}
	for i, cs := range cases {
		c, err := newRig(r, cs, nil, i)
		if err != nil {
			return err
		}
		l.cases = append(l.cases, c)
	}
	rungs := l.rungs()
	l.per = d / time.Duration(len(rungs))
	for _, rung := range rungs {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) rungs() []func() error {
	r := l.r
	cs := func(i int) *rig { return l.cases[i%len(l.cases)] }
	layout := compile.DefaultLayout()
	// Code pointers and stack modifiers of the cases' address space:
	// the (return address, SP) pairs PACStack signs.
	ptr := func(i int) uint64 { return layout.CodeBase + 4*uint64(i%4096) }
	mod := func(i int) uint64 { return layout.StackTop() - 16*uint64(i%64) }
	rng := rand.New(rand.NewSource(derive(r.seed, streamLadder, 1000)))
	keys := make([]pa.Keys, 64)
	for i := range keys {
		keys[i] = pa.GenerateKeysFrom(rng)
	}
	ciphers := make([]*qarma.Cipher, len(keys))
	for i, k := range keys {
		ciphers[i] = qarma.New(k[pa.KeyIA].W0, k[pa.KeyIA].K0, qarma.Config{})
	}
	auth := pa.New(keys[0], pa.DefaultConfig())
	misses := 0
	seed := func(i int) int64 { return derive(r.seed, streamLadder, uint64(i)+10_000) }

	reg := telemetry.NewRegistry()
	counter := reg.Counter("perfbench_ladder_total", "ladder counter rung")
	hist := reg.Histogram("perfbench_ladder_cycles", "ladder histogram rung", traffic.LatencyBounds)
	events := telemetry.NewEventLog(4096)
	adm := resilience.NewAdmission(r.nproc, r.nproc)
	mesh0, meshErr := mesh.New(mesh.Config{Links: map[int]mesh.LinkConfig{0: mesh.Gray()}}, r.seed)

	// stepRate is ns per instruction over a run of a cold-booted case:
	// with blocks, the second half of the run (blocks built during the
	// untimed first half); without, the single-step oracle's whole run.
	stepRate := func(i int, blocks bool) (float64, error) {
		c := cs(i)
		p, err := c.boot(seed(i))
		if err != nil {
			return 0, err
		}
		if blocks {
			if err := p.Run(c.want.instrs / 2); err != nil && !errors.Is(err, cpu.ErrStepLimit) {
				return 0, err
			}
		} else {
			defer cpu.SetBlockCompile(false)()
		}
		before := instrsOf(p)
		t := time.Now()
		if err := p.Run(c.budget()); err != nil {
			return 0, err
		}
		return float64(time.Since(t).Nanoseconds()) / float64(instrsOf(p)-before), nil
	}

	return []func() error{
		func() error {
			return l.batch("qarma.encrypt_ns", "ns", 1, func(i int) error {
				sinkU64 += ciphers[i%len(ciphers)].Encrypt(ptr(i), mod(i))
				return nil
			})
		},
		func() error {
			return l.batch("pa.new_ns", "ns", 1, func(i int) error {
				sinkAny = pa.New(keys[i%len(keys)], pa.DefaultConfig())
				return nil
			})
		},
		func() error {
			return l.batch("pa.pac_miss_ns", "ns", 1, func(int) error {
				misses++ // never the same (pointer, modifier) twice
				sinkU64 += auth.AddPAC(pa.KeyIA, layout.CodeBase+4*uint64(misses), mod(misses))
				return nil
			})
		},
		func() error {
			return l.batch("pa.pac_hit_ns", "ns", 1, func(i int) error {
				sinkU64 += auth.AddPAC(pa.KeyIA, ptr(i%8), mod(i%8))
				return nil
			})
		},
		func() error {
			return l.batch("kernel.new_seed_us", "us", 1e3, func(i int) error {
				k := kernel.New(pa.DefaultConfig())
				k.Seed(seed(i))
				sinkAny = k
				return nil
			})
		},
		func() error {
			// Restore alone, into a leased machine: no rekey, no probe.
			c := cs(0)
			m := c.pool.Get()
			if m == nil {
				return errors.New("an uncapped pool refused a lease")
			}
			defer c.pool.Put(m)
			bi := c.pool.Image()
			return l.batch("snap.restore_us", "us", 1e3, func(int) error { return bi.Restore(m.Proc) })
		},
		func() error {
			return l.measureUpTo("pool.lease_us", "us", leaseSamples, func(i int) (float64, error) {
				c := cs(i)
				t0 := time.Now()
				m := c.pool.Get()
				t1 := time.Now()
				if m == nil {
					return 0, errors.New("an uncapped pool refused a lease")
				}
				m.K.Seed(seed(i))
				t2 := time.Now()
				_, err := c.pool.Reset(m)
				c.pool.Put(m)
				return float64((t1.Sub(t0) + time.Since(t2)).Nanoseconds()) / 1e3, err
			})
		},
		func() error {
			return l.measure("cpu.first_stepn_us", "us", func(i int) (float64, error) {
				c := cs(i)
				p, err := c.boot(seed(i))
				if err != nil {
					return 0, err
				}
				t := time.Now()
				err = p.Run(c.budget())
				return float64(time.Since(t).Nanoseconds()) / 1e3, err
			})
		},
		func() error {
			c := cs(0)
			p, err := c.boot(seed(0))
			if err != nil {
				return err
			}
			runErr := p.Run(c.budget())
			return l.batch("fault.classify_us", "us", 1e3, func(int) error {
				o, cause, err := c.eng.ClassifyRun(scheme, runErr, p)
				if err == nil && o != fault.OutcomeBenign {
					err = fmt.Errorf("clean run classified %v (%v)", o, cause)
				}
				return err
			})
		},
		func() error {
			return l.batch("resilience.admission_ns", "ns", 1, func(int) error {
				if err := adm.Acquire(context.Background()); err != nil {
					return err
				}
				adm.Release()
				return nil
			})
		},
		func() error {
			return l.measure("cpu.stepn_ns_per_instr", "ns", func(i int) (float64, error) { return stepRate(i, true) })
		},
		func() error {
			return l.measure("cpu.step_ns_per_instr", "ns", func(i int) (float64, error) { return stepRate(i, false) })
		},
		func() error {
			p := cs(0).proc
			at := layout.StackTop() - 64
			return l.batch("mem.read64_hit_ns", "ns", 1, func(i int) error {
				v, err := p.Mem.Read64(at - 8*uint64(i%8))
				sinkU64 += v
				return err
			})
		},
		func() error {
			p := cs(0).proc
			addr := [2]uint64{layout.StackTop() - 64, layout.CanaryAddr()} // two pages: every read misses the lookaside
			return l.batch("mem.read64_miss_ns", "ns", 1, func(i int) error {
				v, err := p.Mem.Read64(addr[i&1])
				sinkU64 += v
				return err
			})
		},
		func() error {
			return l.batch("traffic.generate_ms", "ms", 1e6, func(i int) error {
				m := traffic.BurstScenario(derive(r.seed, streamSoak, uint64(i)))
				a, err := m.Generate()
				sinkAny = a
				return err
			})
		},
		func() error {
			return l.batch("telemetry.counter_inc_ns", "ns", 1, func(int) error { counter.Inc(); return nil })
		},
		func() error {
			return l.batch("telemetry.hist_observe_ns", "ns", 1, func(i int) error {
				hist.Observe(cs(i).want.instrs << uint(i%12))
				return nil
			})
		},
		func() error {
			return l.batch("telemetry.event_record_ns", "ns", 1, func(i int) error {
				events.Record(telemetry.EvRequestDone, cs(i).workload, schemeName, uint64(i))
				return nil
			})
		},
		func() error {
			if meshErr != nil {
				return meshErr
			}
			return l.batch("mesh.sample_ns", "ns", 1, func(i int) error {
				sinkMesh = mesh0.Sample(0, uint64(i)*997)
				return nil
			})
		},
		func() error {
			return l.batch("compile.compile_ms", "ms", 1e6, func(i int) error {
				c := cs(i)
				img, err := compile.Compile(c.img.IR, scheme, layout)
				sinkAny = img
				return err
			})
		},
		func() error {
			return l.measure("compile.boot_us", "us", func(i int) (float64, error) {
				k := kernel.New(pa.DefaultConfig())
				k.Seed(seed(i))
				t := time.Now()
				p, err := cs(i).img.Boot(k)
				sinkAny = p
				return float64(time.Since(t).Nanoseconds()) / 1e3, err
			})
		},
		func() error {
			return l.batch("snap.encode_bootimage_us", "us", 1e3, func(i int) error {
				c := cs(i)
				bi, err := snap.EncodeBootImage(c.proc, c.img.Prog)
				sinkAny = bi
				return err
			})
		},
	}
}
