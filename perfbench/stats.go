package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pacstack/internal/telemetry"
)

// derive maps (workload seed, stream, index) to an input seed with
// the splitmix64 finalizer. Streams keep the inputs of different
// purposes (request seeds, soak seeds, ladder keys) independent.
// The result is never zero: a zero request seed asks the server to
// pick one itself.
func derive(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xd1b54a32d192ed03 + i
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	if v := int64((z ^ (z >> 31)) >> 1); v != 0 {
		return v
	}
	return 1
}

// Input streams.
const (
	streamRequest = iota + 1
	streamServer
	streamSetup
	streamSoak
	streamSuite
	streamLadder
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest quantile with at least ten samples beyond it,
// capped at p99 (the latency percentile serving is judged on) and
// floored at the median.
func tailQ(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.99, q))
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// rssPeakMB is the process's peak resident set in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// A run builds its workload from scratch at least minSetups times and
// until setupBudget is spent (at most maxSetups); setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 1500 * time.Millisecond
)

// timeSetup runs build repeatedly and returns the median wall seconds
// and the repetition count. The last build's state is what the run
// measures. A collection after each build, outside its timing, keeps
// discarded builds from raising the peak resident set.
func timeSetup(build func() error) (float64, int, error) {
	var secs []float64
	for start := time.Now(); len(secs) < minSetups || (len(secs) < maxSetups && time.Since(start) < setupBudget); {
		t := time.Now()
		if err := build(); err != nil {
			return 0, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
		runtime.GC()
	}
	return median(secs), len(secs), nil
}

// counterSum reads a counter family from a registry snapshot, summed
// over its label values.
func counterSum(snap telemetry.MetricsSnapshot, name string) uint64 {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		var v uint64
		for _, s := range f.Series {
			v += s.Value
		}
		return v
	}
	return 0
}

// gaugeSum is counterSum for gauges.
func gaugeSum(snap telemetry.MetricsSnapshot, name string) int64 {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		var v int64
		for _, s := range f.Series {
			v += s.GaugeValue
		}
		return v
	}
	return 0
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registryOnly is the untraced telemetry sink: the program's metrics
// registry (the source of the counts the benchmark reads) with the
// event ring off. The traced runs use a full telemetry.New set.
func registryOnly() *telemetry.Set { return &telemetry.Set{Reg: telemetry.NewRegistry()} }

// rates turns (completion offset, work) samples into per-window work
// rates over windows of width w, dropping the final partial window.
func rates(ends []time.Duration, work []float64, w, total time.Duration) []float64 {
	n := int(total / w)
	if n < 1 {
		n = 1
		w = total
	}
	sum := make([]float64, n)
	for i, e := range ends {
		if k := int(e / w); k < n {
			sum[k] += work[i]
		}
	}
	for k := range sum {
		sum[k] /= w.Seconds()
	}
	return sum
}
