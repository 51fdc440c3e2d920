// Package des is the discrete-event core every soak simulator runs on:
// the serving tier's closed-loop and open-loop soaks (internal/serve)
// and the fleet soaks with kills, mesh and hedging (internal/cluster).
//
// The design reconciles concurrent traffic with byte-identical reports
// in two phases:
//
//  1. Outcomes are pure functions of request identity. Each request
//     carries a private seed derived from the soak seed, so its kernel
//     keys, chaos draws and classification do not depend on scheduling
//     or on which backend ends up executing it. Precompute runs them
//     all once on the parallel worker pool (internal/par); this is
//     where wall-clock concurrency lives.
//  2. The traffic dynamics replay serially through one event heap
//     keyed (time, seq): N backends, each with a worker limit, a FIFO
//     queue and the ceil(busy/cores) contention model, fed by one of
//     two arrival sources (closed-loop clients or a traffic.Model
//     stream). Everything a configuration adds — breakers, routing,
//     kills, the network mesh, hedging, budgets, ejection, brownout,
//     AIMD controllers, boot costs — enters as a Hooks policy.
//
// Same seed and knobs in, byte-identical tallies and event stream out,
// regardless of GOMAXPROCS or the precompute width.
package des

import (
	"container/heap"
	"context"
	"sort"

	"pacstack/internal/fault"
	"pacstack/internal/par"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// Class is a precomputed execution verdict.
type Class uint8

const (
	OK Class = iota
	Detected
	Silent
)

// Outcome is one request's precomputed execution result plus its
// machine-acquisition charge (Boot, virtual cycles).
type Outcome struct {
	Class       Class
	Cause       fault.Cause
	Cycles      uint64
	Boot        uint64
	Healed      bool
	Injected    int
	Checkpoints int
	Restores    int
	Torn        int
}

// Precompute runs exec for every request id in [0, n) on the parallel
// worker pool. exec must be a pure function of the id.
func Precompute(ctx context.Context, n int, exec func(id int) (Outcome, error)) ([]Outcome, error) {
	out := make([]Outcome, n)
	err := par.ForEachCtx(ctx, n, func(id int) error {
		o, err := exec(id)
		out[id] = o
		return err
	})
	return out, err
}

// Kind is an event kind of the replay.
type Kind uint8

const (
	Issue   Kind = iota // a request (re)submits: ID, Attempt
	Done                // an attempt finishes executing: Tok
	Hedge               // a primary attempt's hedge deadline: Tok
	Timeout             // a lost attempt's deadline: Tok
	Call                // a scheduled callback (kill, controller tick): Tok indexes it
)

// Event is one heap entry; seq breaks time ties FIFO.
type Event struct {
	At      uint64
	Kind    Kind
	ID      int
	Attempt int
	Tok     int
	seq     int
}

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// Attempt is one in-flight execution attempt of a request: the
// primary, a retry, a failover replay or a hedge.
type Attempt struct {
	ID, No, Backend, Tok int
	LinkLat, Dur         uint64 // mesh latency; service duration once started
	Queued, Executing    bool
	Lost                 bool // the mesh ate it; a Timeout is pending
	Dead                 bool
	Hedged               bool
}

// Backend is one replayed server: capacity, FIFO queue, contention
// and its per-backend tallies.
type Backend struct {
	Workers, Queue, Cores int
	Busy                  int
	Fifo                  []*Attempt

	// Ctl, when set, observes every service start (an AIMD controller
	// resizing this backend's workers or cores).
	Ctl interface{ ObserveBusy(int) }

	Routed, OK, Healed, Detected, Silent, Sheds, Denied, Timeouts int
}

// SchemeCount pairs a name with a counter, kept as a sorted slice (not
// a map) so reports marshal identically every run.
type SchemeCount struct {
	Scheme string `json:"scheme"`
	Count  uint64 `json:"count"`
}

// Row is the per-scheme outcome breakdown.
type Row struct {
	Scheme   string `json:"scheme"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`
	Healed   int    `json:"healed"`
	Detected int    `json:"detected"`
	Silent   int    `json:"silent"`
	GaveUp   int    `json:"gave_up"`
}

// Totals is the terminal tally every soak report embeds.
type Totals struct {
	Issued   int `json:"issued"`
	OK       int `json:"ok"`
	Healed   int `json:"healed"`
	Detected int `json:"detected"`
	Silent   int `json:"silent"`
	GaveUp   int `json:"gave_up"`

	ByCause [fault.NumCauses]int `json:"-"`
	// Causes is ByCause in stable, name-keyed, zero-suppressed form.
	Causes []SchemeCount `json:"detected_by_cause,omitempty"`

	Injected int `json:"injected_faults"`
	// Checkpoint traffic across all executed requests: snapshot
	// commits, warm restores, and commits torn by a simulated
	// mid-checkpoint machine death. Torn commits never produce a
	// silent outcome.
	Checkpoints int `json:"checkpoints,omitempty"`
	Restores    int `json:"restores,omitempty"`
	TornCommits int `json:"torn_commits,omitempty"`

	Retries       int `json:"retries"`
	Sheds         int `json:"sheds"`
	BreakerDenied int `json:"breaker_denied"`
}

// Terminal counts the requests that reached a terminal state. A run
// lost no request when it equals Issued.
func (t Totals) Terminal() int { return t.OK + t.Detected + t.Silent + t.GaveUp }

// Hooks are a configuration's policies. Every hook is optional; a nil
// hook is the plain one-backend behaviour.
type Hooks struct {
	// Arrive sees each fresh submission (attempt 0); false means the
	// policy ended the request itself (Refuse).
	Arrive func(id int) bool
	// Route names the backend for an attempt, excluding one backend
	// (-1: none), or returns -1 when no candidate exists. Nil: 0.
	Route func(id, exclude int) int
	// NoBackend accounts an attempt Route found no backend for and
	// returns the attempt number the retry decision is charged at;
	// required with Route.
	NoBackend func(id, attempt int) int
	// Grant passes the ids routed to one backend at one instant
	// through its breaker and returns the admitted ones in admission
	// order; the rest are denied. Nil grants everything.
	Grant func(bk int, ids []int) []int
	// Denied and Shed account admission verdicts; Routed sees every
	// attempt that reached a backend's admission (shed ones included).
	Denied func(bk, id int)
	Routed func(bk int)
	Shed   func(bk, id int)
	// Link samples the network path to bk for a new attempt: added
	// latency, or a drop (the attempt is lost until dropTimeout).
	Link func(bk int) (latency uint64, drop bool)
	// Started sees each service start, Launched each primary attempt
	// that got in flight, Done each winning completion (after the
	// tally, before the backend admits its next), Cancelled each
	// executing or queued loser of a hedge race.
	Started   func(a *Attempt)
	Launched  func(a *Attempt)
	Done      func(a *Attempt)
	Cancelled func(a *Attempt)
	// Hedge fires at a live primary's hedge deadline.
	Hedge func(primary *Attempt)
	// LostTimeout accounts a lost attempt whose deadline fired.
	LostTimeout func(a *Attempt)
	// SpendRetry gates a retry on a budget; false gives the request up.
	SpendRetry func() bool
	// Retried and GaveUp account client retries and give-ups.
	Retried func(id int)
	GaveUp  func(id int, detail string)
}

// dropTimeout is how long (virtual cycles) the sender waits on a
// mesh-dropped message before declaring the attempt lost.
const dropTimeout = 64_000

// Sim is one replay. Build it with New, configure Fleet and Hooks,
// then Run.
type Sim struct {
	Now      uint64
	Out      []Outcome
	Src      *Source
	Fleet    []*Backend
	Totals   Totals
	Hooks    Hooks
	Log      *telemetry.EventLog
	Overhead uint64 // fixed per-execution service latency
	Retries  int    // per-request client retry budget for rejections
	// Batch resolves each maximal run of same-instant issues together:
	// all are routed first, then admitted per backend through Grant —
	// the seeded arbitration of racing breaker probes.
	Batch bool

	h        eventHeap
	seq      int
	atts     map[int]*Attempt
	live     [][]*Attempt
	done     []bool
	nextTok  int
	rows     map[string]*Row
	rowOrder []string
	calls    []func()
	periodic []bool
	pending  int // periodic calls in the heap
}

// New builds a replay of src's requests with the given outcomes over
// n backends of the given shape.
func New(src *Source, out []Outcome, n, workers, queue, cores int) *Sim {
	s := &Sim{
		Src: src, Out: out,
		atts: map[int]*Attempt{},
		live: make([][]*Attempt, len(src.Reqs)),
		done: make([]bool, len(src.Reqs)),
		rows: map[string]*Row{},
	}
	for i := 0; i < n; i++ {
		s.Fleet = append(s.Fleet, &Backend{Workers: workers, Queue: queue, Cores: cores})
	}
	return s
}

// Clock reads the replay's virtual time; telemetry stamps with it.
func (s *Sim) Clock() uint64 { return s.Now }

// Push schedules an event.
func (s *Sim) Push(e Event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.h, e)
}

// At schedules fn once at virtual instant at.
func (s *Sim) At(at uint64, fn func()) {
	s.calls = append(s.calls, fn)
	s.periodic = append(s.periodic, false)
	s.Push(Event{At: at, Kind: Call, Tok: len(s.calls) - 1})
}

// Every schedules fn every interval cycles from interval on, for as
// long as non-periodic work remains in the heap — two periodic
// controllers never keep each other alive after the last request.
func (s *Sim) Every(interval uint64, fn func()) {
	idx := len(s.calls)
	tick := func() {
		fn()
		if s.h.Len() > s.pending {
			s.pending++
			s.Push(Event{At: s.Now + interval, Kind: Call, Tok: idx})
		}
	}
	s.calls = append(s.calls, tick)
	s.periodic = append(s.periodic, true)
	s.pending++
	s.Push(Event{At: interval, Kind: Call, Tok: idx})
}

// row returns (creating in first-seen order) the per-scheme row.
func (s *Sim) row(name string) *Row {
	r, ok := s.rows[name]
	if !ok {
		r = &Row{Scheme: name}
		s.rows[name] = r
		s.rowOrder = append(s.rowOrder, name)
	}
	return r
}

// Start schedules the source's initial submissions. Events scheduled
// after it (kills, controller ticks) order after them at equal times.
func (s *Sim) Start() { s.Src.start(s) }

// Run replays until the heap drains, then finalizes Totals.
func (s *Sim) Run() {
	for s.h.Len() > 0 {
		e := heap.Pop(&s.h).(Event)
		s.Now = e.At
		switch e.Kind {
		case Issue:
			batch := []Event{e}
			for s.Batch && s.h.Len() > 0 && s.h[0].At == e.At && s.h[0].Kind == Issue {
				batch = append(batch, heap.Pop(&s.h).(Event))
			}
			s.issue(batch)
		case Done:
			a, ok := s.atts[e.Tok]
			if !ok || a.Dead {
				continue // voided: cancelled loser or orphaned by a kill
			}
			a.Executing = false
			s.Fleet[a.Backend].Busy--
			s.finish(a)
			s.AdmitNext(a.Backend)
			s.Src.terminal(s, a.ID)
		case Hedge:
			if a, ok := s.atts[e.Tok]; ok && !a.Dead && !s.done[a.ID] && s.Hooks.Hedge != nil {
				s.Hooks.Hedge(a)
			}
		case Timeout:
			s.timeout(e.Tok)
		case Call:
			if s.periodic[e.Tok] {
				s.pending--
			}
			s.calls[e.Tok]()
		}
	}
	s.Totals.Issued = len(s.Src.Reqs)
	for c := 0; c < fault.NumCauses; c++ {
		if n := s.Totals.ByCause[c]; n > 0 {
			s.Totals.Causes = append(s.Totals.Causes, SchemeCount{Scheme: fault.Cause(c).String(), Count: uint64(n)})
		}
	}
}

// Rows returns the per-scheme rows in first-seen order.
func (s *Sim) Rows() []Row {
	out := make([]Row, 0, len(s.rowOrder))
	for _, name := range s.rowOrder {
		out = append(out, *s.rows[name])
	}
	return out
}

// InFlight counts attempts still executing or queued.
func (s *Sim) InFlight() int {
	n := 0
	for _, b := range s.Fleet {
		n += b.Busy + len(b.Fifo)
	}
	return n
}

// issue routes a batch of same-instant submissions: each is routed in
// order, then every backend's group (ascending backend index) passes
// Grant; granted attempts launch in grant order, the rest are denied.
func (s *Sim) issue(batch []Event) {
	groups := map[int][]int{} // request ids by routed backend
	attempt := map[int]int{}
	var order []int
	for _, e := range batch {
		if s.done[e.ID] || (e.Attempt == 0 && s.Hooks.Arrive != nil && !s.Hooks.Arrive(e.ID)) {
			continue
		}
		bk := s.route(e.ID, -1)
		if bk < 0 {
			s.retryOrGiveUp(e.ID, s.Hooks.NoBackend(e.ID, e.Attempt))
			continue
		}
		if _, ok := groups[bk]; !ok {
			order = append(order, bk)
		}
		groups[bk] = append(groups[bk], e.ID)
		attempt[e.ID] = e.Attempt
	}
	sort.Ints(order)
	for _, bk := range order {
		ids, granted := groups[bk], map[int]bool{}
		for _, id := range s.grant(bk, ids) {
			granted[id] = true
			a := s.launch(id, attempt[id], bk, false)
			if a == nil {
				s.retryOrGiveUp(id, attempt[id])
			} else if attempt[id] == 0 && s.Hooks.Launched != nil {
				s.Hooks.Launched(a)
			}
		}
		for _, id := range ids {
			if !granted[id] {
				s.deny(bk, id)
				s.retryOrGiveUp(id, attempt[id])
			}
		}
	}
}

func (s *Sim) route(id, exclude int) int {
	if s.Hooks.Route == nil {
		return 0
	}
	return s.Hooks.Route(id, exclude)
}

func (s *Sim) grant(bk int, ids []int) []int {
	if s.Hooks.Grant == nil {
		return ids
	}
	return s.Hooks.Grant(bk, ids)
}

func (s *Sim) deny(bk, id int) {
	s.Fleet[bk].Denied++
	s.Totals.BreakerDenied++
	if s.Hooks.Denied != nil {
		s.Hooks.Denied(bk, id)
	}
}

// Submit routes, grants and launches one attempt outside the issue
// path (a hedge); nil when it was rejected.
func (s *Sim) Submit(id, no, exclude int, hedged bool) *Attempt {
	bk := s.route(id, exclude)
	if bk < 0 {
		s.Hooks.NoBackend(id, no)
		return nil
	}
	if len(s.grant(bk, []int{id})) == 0 {
		s.deny(bk, id)
		return nil
	}
	return s.launch(id, no, bk, hedged)
}

// launch puts one attempt on bk's path: lost to the mesh, executing,
// queued, or shed (nil). The caller owns the retry decision.
func (s *Sim) launch(id, no, bk int, hedged bool) *Attempt {
	a := &Attempt{ID: id, No: no, Backend: bk, Tok: s.nextTok, Hedged: hedged}
	s.nextTok++
	if s.Hooks.Link != nil {
		lat, drop := s.Hooks.Link(bk)
		if drop {
			a.Lost = true
			s.track(a)
			s.Push(Event{At: s.Now + dropTimeout, Kind: Timeout, ID: id, Tok: a.Tok})
			return a
		}
		a.LinkLat = lat
	}
	b := s.Fleet[bk]
	if s.Hooks.Routed != nil {
		s.Hooks.Routed(bk)
	}
	switch {
	case b.Busy < b.Workers:
		b.Routed++
		s.track(a)
		s.start(a)
	case len(b.Fifo) < b.Queue:
		b.Routed++
		a.Queued = true
		s.track(a)
		b.Fifo = append(b.Fifo, a)
	default:
		b.Sheds++
		s.Totals.Sheds++
		s.Src.shed(id)
		if s.Hooks.Shed != nil {
			s.Hooks.Shed(bk, id)
		}
		return nil
	}
	return a
}

func (s *Sim) track(a *Attempt) {
	s.atts[a.Tok] = a
	s.live[a.ID] = append(s.live[a.ID], a)
}

func (s *Sim) untrack(a *Attempt) {
	a.Dead = true
	delete(s.atts, a.Tok)
	l := s.live[a.ID]
	for i, x := range l {
		if x == a {
			s.live[a.ID] = append(l[:i], l[i+1:]...)
			break
		}
	}
}

// start begins one attempt's service: (Overhead + boot + cycles) x
// slow-factor x ceil(busy/cores), fixed at service start, plus the
// attempt's link latency.
func (s *Sim) start(a *Attempt) {
	b := s.Fleet[a.Backend]
	b.Busy++
	if b.Ctl != nil {
		b.Ctl.ObserveBusy(b.Busy)
	}
	a.Dur = s.Intrinsic(a.ID)*uint64((b.Busy+b.Cores-1)/b.Cores) + a.LinkLat
	a.Executing = true
	if s.Hooks.Started != nil {
		s.Hooks.Started(a)
	}
	s.Push(Event{At: s.Now + a.Dur, Kind: Done, ID: a.ID, Tok: a.Tok})
}

// Intrinsic is a request's uncontended service time.
func (s *Sim) Intrinsic(id int) uint64 {
	o := s.Out[id]
	return (s.Overhead + o.Boot + o.Cycles) * s.Src.Reqs[id].Slow
}

// AdmitNext starts queued attempts while bk has free workers.
func (s *Sim) AdmitNext(bk int) {
	b := s.Fleet[bk]
	for b.Busy < b.Workers && len(b.Fifo) > 0 {
		a := b.Fifo[0]
		b.Fifo = b.Fifo[1:]
		if a.Dead {
			continue
		}
		a.Queued = false
		s.start(a)
	}
}

// finish tallies a winning completion: siblings are cancelled, the
// outcome is counted once per request.
func (s *Sim) finish(a *Attempt) {
	id := a.ID
	o := s.Out[id]
	req := s.Src.Reqs[id]
	b := s.Fleet[a.Backend]
	s.done[id] = true
	s.cancelSiblings(a)
	s.untrack(a)
	r := s.row(req.Scheme)
	r.Requests++
	t := &s.Totals
	t.Injected += o.Injected
	t.Checkpoints += o.Checkpoints
	t.Restores += o.Restores
	t.TornCommits += o.Torn
	switch o.Class {
	case OK:
		t.OK++
		r.OK++
		b.OK++
		if o.Healed {
			t.Healed++
			r.Healed++
			b.Healed++
		}
		s.Src.done(id, s.Now, traffic.OutcomeOK)
		s.Log.Record(telemetry.EvRequestDone, req.Scheme, "ok", o.Cycles)
	case Detected:
		t.Detected++
		t.ByCause[o.Cause]++
		r.Detected++
		b.Detected++
		s.Src.done(id, s.Now, traffic.OutcomeDetected)
		s.Log.Record(telemetry.EvRequestDone, req.Scheme, "detected:"+o.Cause.String(), o.Cycles)
	case Silent:
		t.Silent++
		r.Silent++
		b.Silent++
		s.Src.done(id, s.Now, traffic.OutcomeSilent)
		s.Log.Record(telemetry.EvRequestDone, req.Scheme, "silent", o.Cycles)
	}
	if s.Hooks.Done != nil {
		s.Hooks.Done(a)
	}
}

// cancelSiblings frees every other live attempt of the winner's
// request at win time: a queued loser leaves its queue, an executing
// loser frees its worker (the next queued attempt starts), a lost
// loser's pending timeout becomes a no-op.
func (s *Sim) cancelSiblings(winner *Attempt) {
	for _, a := range append([]*Attempt(nil), s.live[winner.ID]...) {
		if a == winner {
			continue
		}
		b := s.Fleet[a.Backend]
		switch {
		case a.Queued:
			for i, x := range b.Fifo {
				if x == a {
					b.Fifo = append(b.Fifo[:i], b.Fifo[i+1:]...)
					break
				}
			}
		case a.Executing:
			b.Busy--
		}
		if (a.Queued || a.Executing) && s.Hooks.Cancelled != nil {
			s.Hooks.Cancelled(a)
		}
		s.untrack(a)
		if a.Executing {
			s.AdmitNext(a.Backend)
		}
	}
}

// timeout resolves a lost attempt's deadline: unless a sibling still
// races (or already won), the request retries.
func (s *Sim) timeout(tok int) {
	a, ok := s.atts[tok]
	if !ok || a.Dead || !a.Lost {
		return // resolved or cancelled before the deadline
	}
	s.untrack(a)
	s.Fleet[a.Backend].Timeouts++
	if s.Hooks.LostTimeout != nil {
		s.Hooks.LostTimeout(a)
	}
	if s.done[a.ID] || len(s.live[a.ID]) > 0 {
		return
	}
	s.retryOrGiveUp(a.ID, a.No+1)
}

// retryOrGiveUp re-issues a rejected or lost request after its
// backoff if the client has retries left and the retry budget (if any)
// grants one; otherwise the request gives up, terminally and loudly.
func (s *Sim) retryOrGiveUp(id, attempt int) {
	if attempt >= s.Retries {
		s.GiveUp(id, "gave-up:retries")
		return
	}
	if s.Hooks.SpendRetry != nil && !s.Hooks.SpendRetry() {
		s.GiveUp(id, "gave-up:retry-budget")
		return
	}
	s.Totals.Retries++
	if s.Hooks.Retried != nil {
		s.Hooks.Retried(id)
	}
	s.Src.retry(id)
	s.Log.Record(telemetry.EvRetry, s.Src.Reqs[id].Scheme, "", uint64(attempt+1))
	s.Push(Event{At: s.Now + s.Src.backoff(id).Delay(attempt), Kind: Issue, ID: id, Attempt: attempt + 1})
}

// GiveUp ends a request without an execution outcome.
func (s *Sim) GiveUp(id int, detail string) {
	s.Refuse(id)
	if s.Hooks.GaveUp != nil {
		s.Hooks.GaveUp(id, detail)
	}
	s.Src.done(id, s.Now, traffic.OutcomeGaveUp)
	s.Src.terminal(s, id)
}

// Refuse marks a request terminal as given up in the tallies only.
func (s *Sim) Refuse(id int) {
	s.done[id] = true
	s.Totals.GaveUp++
	r := s.row(s.Src.Reqs[id].Scheme)
	r.GaveUp++
	r.Requests++
}

// Evict empties a dead backend: its executing attempts (by request id)
// then its queued ones (FIFO order) are voided and returned.
func (s *Sim) Evict(bk int) (executing, queued []int) {
	b := s.Fleet[bk]
	for id, l := range s.live {
		for _, a := range l {
			if a.Backend == bk && a.Executing {
				executing = append(executing, id)
				s.untrack(a)
				break
			}
		}
	}
	for _, a := range b.Fifo {
		queued = append(queued, a.ID)
		s.untrack(a)
	}
	b.Busy, b.Fifo = 0, nil
	return executing, queued
}
