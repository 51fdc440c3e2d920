package traffic

import (
	"fmt"
	"strings"

	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
)

// SLO is one class's service-level objective, all in virtual cycles
// and integer permille so evaluation is exact.
//
// Latency targets (P50, P99): 0 means unconstrained. Rate budgets
// (ShedPermille, ErrorPermille): negative means unconstrained, 0 is a
// hard "none allowed".
type SLO struct {
	P50 uint64 `json:"p50_cycles,omitempty"` // virtual-latency target, first issue -> terminal
	P99 uint64 `json:"p99_cycles,omitempty"`

	// ShedPermille bounds shed events (queue-full rejections, counted
	// per event — retried sheds count each time) per arrival.
	ShedPermille int `json:"shed_permille"`

	// ErrorPermille is the error budget: terminal failures (detected +
	// silent + gave-up) per arrival.
	ErrorPermille int `json:"error_permille"`
}

// Outcome is a request's terminal classification from the traffic
// model's point of view.
type Outcome int

const (
	OutcomeOK Outcome = iota
	OutcomeDetected
	OutcomeSilent
	OutcomeGaveUp
)

// LatencyBounds is the fixed geometric bucket layout (2^11 .. 2^28
// cycles, doubling) for per-class latency histograms. It must cover
// every sane SLO target: quantiles of observations beyond the last
// bound saturate (telemetry.Histogram.Quantile).
var LatencyBounds = func() []uint64 {
	var b []uint64
	for v := uint64(1) << 11; v <= 1<<28; v <<= 1 {
		b = append(b, v)
	}
	return b
}()

// Evaluator accumulates per-class traffic telemetry during the serial
// DES replay and renders it into an SLOReport. Every latency lands in
// two histograms of one bucket layout: a private one the report's
// quantiles come from, so a registry that already holds another run's
// samples cannot move them, and the per-class series of
// pacstack_traffic_latency_cycles in the run's registry (if any).
type Evaluator struct {
	classes  []Class
	lat, reg []*telemetry.Histogram

	arrivals, ok, detected, silent, gaveup, sheds, retries, browned []int
}

// NewEvaluator wires per-class instruments into reg (nil: none).
func NewEvaluator(classes []Class, reg *telemetry.Registry) *Evaluator {
	n := len(classes)
	e := &Evaluator{
		classes:  classes,
		lat:      make([]*telemetry.Histogram, n),
		reg:      make([]*telemetry.Histogram, n),
		arrivals: make([]int, n), ok: make([]int, n),
		detected: make([]int, n), silent: make([]int, n),
		gaveup: make([]int, n), sheds: make([]int, n), retries: make([]int, n),
		browned: make([]int, n),
	}
	latVec := reg.HistogramVec("pacstack_traffic_latency_cycles",
		"virtual latency (first issue to terminal state) by class", LatencyBounds, "class")
	for i, c := range classes {
		e.lat[i] = telemetry.NewHistogram(LatencyBounds)
		e.reg[i] = latVec.With(c.Name)
	}
	return e
}

// Arrival records one generated request of the class.
func (e *Evaluator) Arrival(class int) { e.arrivals[class]++ }

// Shed records one queue-full rejection.
func (e *Evaluator) Shed(class int) { e.sheds[class]++ }

// Retry records one client retry.
func (e *Evaluator) Retry(class int) { e.retries[class]++ }

// Brownout records one arrival shed at admission by the priority
// brownout controller. Browned-out arrivals are a *declared* overload
// response — traffic the operator chose to refuse so higher-priority
// classes keep their objectives — so SLO evaluation reports them per
// class but excludes them from the shed/error denominators and the
// latency distribution: an SLO speaks for the traffic a class was
// actually offered service on, and counting deliberate refusals as
// violations would make brownout self-defeating. Brownout is the
// terminal record here (no Done follows); the owning soak report
// still counts the request gave-up, keeping its conservation
// identity intact.
func (e *Evaluator) Brownout(class int) { e.browned[class]++ }

// Done records a terminal state and its virtual latency (first issue
// to terminal, retries and backoff included).
func (e *Evaluator) Done(class int, latency uint64, o Outcome) {
	e.lat[class].Observe(latency)
	e.reg[class].Observe(latency)
	switch o {
	case OutcomeOK:
		e.ok[class]++
	case OutcomeDetected:
		e.detected[class]++
	case OutcomeSilent:
		e.silent[class]++
	case OutcomeGaveUp:
		e.gaveup[class]++
	}
}

// ClassReport is one class's evaluated SLO row.
type ClassReport struct {
	Class    string `json:"class"`
	Arrivals int    `json:"arrivals"`
	OK       int    `json:"ok"`
	Detected int    `json:"detected"`
	Silent   int    `json:"silent"`
	GaveUp   int    `json:"gave_up"`
	Sheds    int    `json:"sheds"`
	Retries  int    `json:"retries"`

	// BrownedOut arrivals were refused at admission by the priority
	// brownout controller; they are reported but SLO-exempt (see
	// Evaluator.Brownout).
	BrownedOut int `json:"browned_out,omitempty"`

	P50 uint64 `json:"p50_cycles"`
	P99 uint64 `json:"p99_cycles"`

	ShedPermille  int `json:"shed_permille"`
	ErrorPermille int `json:"error_permille"`

	SLO        SLO      `json:"slo"`
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// SLOReport is the deterministic per-class SLO evaluation: a pure
// function of the evaluator's integer state, byte-identical for one
// seed at any worker-pool width.
type SLOReport struct {
	Classes []ClassReport `json:"classes"`
	Pass    bool          `json:"pass"`

	// RPVSMilli is the run's delivered goodput in milli-requests per
	// virtual second (OK terminals over virtual cycles at the 1 GHz
	// virtual clock), copied from the enclosing soak report so the SLO
	// block is self-contained. The warm-pool gate compares this number
	// across boot models at the same seed.
	RPVSMilli uint64 `json:"rpvs_milli"`

	// Adaptive/Controller describe the admission policy the run used:
	// static (Adaptive false, Controller nil) or the AIMD trajectory.
	Adaptive   bool                  `json:"adaptive"`
	Controller *resilience.AIMDStats `json:"controller,omitempty"`
}

func permille(n, d int) int {
	if d == 0 {
		return 0
	}
	return n * 1000 / d
}

// Report evaluates every class against its SLO.
func (e *Evaluator) Report() *SLOReport {
	rep := &SLOReport{Pass: true}
	for i, c := range e.classes {
		cr := ClassReport{
			Class:    c.Name,
			Arrivals: e.arrivals[i],
			OK:       e.ok[i], Detected: e.detected[i],
			Silent: e.silent[i], GaveUp: e.gaveup[i],
			Sheds: e.sheds[i], Retries: e.retries[i],
			BrownedOut: e.browned[i],
			P50:        e.lat[i].Quantile(50, 100),
			P99:        e.lat[i].Quantile(99, 100),
			SLO:        c.SLO,
		}
		// Browned-out arrivals leave both the numerators and the
		// denominator: the SLO judges the traffic the class was
		// actually offered service on.
		offered := cr.Arrivals - cr.BrownedOut
		cr.ShedPermille = permille(cr.Sheds, offered)
		cr.ErrorPermille = permille(cr.Detected+cr.Silent+cr.GaveUp, offered)
		if offered > 0 {
			if c.SLO.P50 > 0 && cr.P50 > c.SLO.P50 {
				cr.Violations = append(cr.Violations, fmt.Sprintf("p50 %d > %d", cr.P50, c.SLO.P50))
			}
			if c.SLO.P99 > 0 && cr.P99 > c.SLO.P99 {
				cr.Violations = append(cr.Violations, fmt.Sprintf("p99 %d > %d", cr.P99, c.SLO.P99))
			}
			if c.SLO.ShedPermille >= 0 && cr.ShedPermille > c.SLO.ShedPermille {
				cr.Violations = append(cr.Violations, fmt.Sprintf("shed %d‰ > %d‰", cr.ShedPermille, c.SLO.ShedPermille))
			}
			if c.SLO.ErrorPermille >= 0 && cr.ErrorPermille > c.SLO.ErrorPermille {
				cr.Violations = append(cr.Violations, fmt.Sprintf("errors %d‰ > %d‰", cr.ErrorPermille, c.SLO.ErrorPermille))
			}
		}
		cr.Pass = len(cr.Violations) == 0
		if !cr.Pass {
			rep.Pass = false
		}
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}

// Class returns the report row for the named class, or nil.
func (r *SLOReport) Class(name string) *ClassReport {
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// Failures names every class that missed its SLO, each with its
// violations in parentheses, comma-separated.
func (r *SLOReport) Failures() string {
	var failed []string
	for _, c := range r.Classes {
		if !c.Pass {
			failed = append(failed, fmt.Sprintf("%s (%s)", c.Class, strings.Join(c.Violations, "; ")))
		}
	}
	return strings.Join(failed, ", ")
}
