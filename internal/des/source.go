package des

import (
	"math/rand"

	"pacstack/internal/resilience"
	"pacstack/internal/traffic"
)

// Request is one soak request: what runs, its identity seed, and (open
// loop) its arrival instant, traffic class and slow-client factor.
type Request struct {
	traffic.Arrival
	Seed int64
}

// Source is an arrival source: closed-loop clients issuing requests
// back to back with think time, or an open-loop traffic.Model stream
// with its per-class SLO evaluator.
type Source struct {
	Reqs []Request
	// Eval tallies the open-loop stream per class (nil: closed loop).
	Eval *traffic.Evaluator

	seed      int64
	base, cap uint64
	perClient int // closed loop: requests per client
	think     uint64
	thinks    []*rand.Rand
	backoffs  []*resilience.Backoff // per client (closed) or per request (open, lazily)
}

// Mix is the splitmix-style seed combiner every soak seed derivation
// uses.
func Mix(a, b int64) int64 {
	z := uint64(a)*0x9e3779b97f4a7c15 + uint64(b)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// nonZero keeps a derived request seed identity-addressed: zero means
// "server picks".
func nonZero(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// ClosedLoop is clients x perClient requests of one workload, the
// schemes round-robin per client. Each client waits a think time drawn
// uniformly from [think/2, think] before each request, and backs off
// (base/cap) before each retry.
func ClosedLoop(seed int64, clients, perClient int, workload string, schemes []string, think, base, cap uint64) *Source {
	src := &Source{seed: seed, base: base, cap: cap, perClient: perClient, think: think}
	for c := 0; c < clients; c++ {
		src.backoffs = append(src.backoffs, resilience.NewBackoff(base, cap, Mix(seed, int64(c)+0x1001)))
		src.thinks = append(src.thinks, rand.New(rand.NewSource(Mix(seed, int64(c)+0x2002))))
		for r := 0; r < perClient; r++ {
			src.Reqs = append(src.Reqs, Request{
				Arrival: traffic.Arrival{Workload: workload, Scheme: schemes[r%len(schemes)], Slow: 1},
				Seed:    nonZero(Mix(int64(c)+0x5f, int64(r)+1)),
			})
		}
	}
	return src
}

// OpenLoop replays a generated arrival stream; each arrival backs off
// on its own seeded stream before a retry.
func OpenLoop(seed int64, arrivals []traffic.Arrival, eval *traffic.Evaluator, base, cap uint64) *Source {
	src := &Source{Eval: eval, seed: seed, base: base, cap: cap}
	src.backoffs = make([]*resilience.Backoff, len(arrivals))
	for id, a := range arrivals {
		src.Reqs = append(src.Reqs, Request{Arrival: a, Seed: nonZero(Mix(seed, int64(id)+0x5f01))})
	}
	return src
}

// Schemes lists the requests' schemes in first-seen order.
func (src *Source) Schemes() []string {
	all := make([]string, len(src.Reqs))
	for i, r := range src.Reqs {
		all[i] = r.Scheme
	}
	return Uniq(all)
}

// Uniq dedupes names into a new slice, keeping first-seen order.
func Uniq(names []string) []string {
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func (src *Source) thinkTime(client int) uint64 {
	half := src.think / 2
	return half + uint64(src.thinks[client].Int63n(int64(src.think-half+1)))
}

// start issues every client's first request after one think, or every
// arrival at its instant.
func (src *Source) start(s *Sim) {
	if src.Eval == nil {
		for c := range src.thinks {
			s.Push(Event{At: src.thinkTime(c), Kind: Issue, ID: c * src.perClient})
		}
		return
	}
	for id, r := range src.Reqs {
		s.Push(Event{At: r.At, Kind: Issue, ID: id})
		src.Eval.Arrival(r.Class)
	}
}

// terminal moves a closed-loop client on to its next request.
func (src *Source) terminal(s *Sim, id int) {
	if src.Eval == nil && (id+1)%src.perClient != 0 {
		s.Push(Event{At: s.Now + src.thinkTime(id/src.perClient), Kind: Issue, ID: id + 1})
	}
}

func (src *Source) backoff(id int) *resilience.Backoff {
	if src.Eval == nil {
		return src.backoffs[id/src.perClient]
	}
	if src.backoffs[id] == nil {
		src.backoffs[id] = resilience.NewBackoff(src.base, src.cap, Mix(src.seed, int64(id)+0x3003))
	}
	return src.backoffs[id]
}

func (src *Source) shed(id int) {
	if src.Eval != nil {
		src.Eval.Shed(src.Reqs[id].Class)
	}
}

func (src *Source) retry(id int) {
	if src.Eval != nil {
		src.Eval.Retry(src.Reqs[id].Class)
	}
}

func (src *Source) done(id int, now uint64, o traffic.Outcome) {
	if src.Eval != nil {
		r := src.Reqs[id]
		src.Eval.Done(r.Class, now-r.At, o)
	}
}
