package supervise

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/ir"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
)

func image(t *testing.T, prog *ir.Program) *compile.Image {
	t.Helper()
	img, err := compile.Compile(prog, compile.SchemePACStack, compile.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func cleanProgram() *ir.Program {
	return &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Write{Byte: 'k'}}},
	}}
}

// spinProgram never exits, so every attempt dies on the watchdog.
func spinProgram() *ir.Program {
	return &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{
			ir.Loop{Count: 1 << 30, Body: []ir.Op{ir.Compute{Units: 1}}},
		}},
	}}
}

func seededKernel(seed int64) *kernel.Kernel {
	k := kernel.New(pa.DefaultConfig())
	k.Seed(seed)
	return k
}

func TestCleanExitFirstAttempt(t *testing.T) {
	sup := New(image(t, cleanProgram()), seededKernel(1), Policy{MaxRestarts: 3})
	p, err := sup.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Output) != "k" {
		t.Errorf("output %q", p.Output)
	}
	if len(sup.Attempts) != 1 || sup.Crashes() != 0 || sup.Downtime != 0 {
		t.Errorf("attempts=%d crashes=%d downtime=%d, want 1/0/0",
			len(sup.Attempts), sup.Crashes(), sup.Downtime)
	}
}

func TestWatchdogExhaustsRestartBudget(t *testing.T) {
	sup := New(image(t, spinProgram()), seededKernel(1), Policy{
		MaxRestarts: 2,
		Budget:      2_000,
	})
	_, err := sup.Run(nil)
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v, want ErrRestartsExhausted", err)
	}
	if got := len(sup.Attempts); got != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 restarts)", got)
	}
	if sup.WatchdogKills() != 3 {
		t.Errorf("watchdog kills = %d, want 3", sup.WatchdogKills())
	}
	for _, a := range sup.Attempts {
		// The watchdog fires outside the kernel's kill path; the
		// supervisor must synthesize the post-mortem.
		if a.Kill == nil {
			t.Fatalf("attempt %d has no post-mortem", a.N)
		}
		if !errors.Is(a.Kill.Cause, cpu.ErrStepLimit) {
			t.Errorf("attempt %d cause = %v, want step limit", a.N, a.Kill.Cause)
		}
		if a.Kill.Symbol == "" {
			t.Errorf("attempt %d post-mortem has no symbol", a.N)
		}
	}
}

func TestBackoffAccumulates(t *testing.T) {
	sup := New(image(t, spinProgram()), seededKernel(1), Policy{
		MaxRestarts: 4,
		BackoffBase: 100,
		BackoffCap:  400,
		Budget:      2_000,
	})
	_, err := sup.Run(nil)
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v", err)
	}
	// Restart delays double from base to cap: 100, 200, 400, 400.
	want := []uint64{0, 100, 200, 400, 400}
	var total uint64
	for i, a := range sup.Attempts {
		if a.Backoff != want[i] {
			t.Errorf("attempt %d backoff = %d, want %d", i, a.Backoff, want[i])
		}
		total += a.Backoff
	}
	if sup.Downtime != total {
		t.Errorf("downtime = %d, want %d", sup.Downtime, total)
	}
}

func TestForkRespawnSharesKeys(t *testing.T) {
	var procs []*kernel.Process
	sup := New(image(t, spinProgram()), seededKernel(1), Policy{
		Respawn:     RespawnFork,
		MaxRestarts: 2,
		Budget:      2_000,
	})
	_, err := sup.Run(func(n int, p *kernel.Process) { procs = append(procs, p) })
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v", err)
	}
	if len(procs) != 3 {
		t.Fatalf("saw %d incarnations", len(procs))
	}
	if !SharedKeys(procs[0], procs[1]) || !SharedKeys(procs[1], procs[2]) {
		t.Error("fork respawn drew fresh keys; Section 4.3 needs the shared-key worker model")
	}
}

func TestExecRespawnFreshKeys(t *testing.T) {
	var procs []*kernel.Process
	sup := New(image(t, spinProgram()), seededKernel(1), Policy{
		Respawn:     RespawnExec,
		MaxRestarts: 1,
		Budget:      2_000,
	})
	_, err := sup.Run(func(n int, p *kernel.Process) { procs = append(procs, p) })
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v", err)
	}
	if SharedKeys(procs[0], procs[1]) {
		t.Error("exec respawn reused keys; each incarnation must re-key")
	}
}

func TestConfigureRunsOncePerIncarnationPolicy(t *testing.T) {
	for _, respawn := range []Respawn{RespawnFork, RespawnExec} {
		calls := 0
		sup := New(image(t, spinProgram()), seededKernel(1), Policy{
			Respawn:     respawn,
			MaxRestarts: 2,
			Budget:      2_000,
		})
		sup.Configure = func(p *kernel.Process) {
			calls++
			p.FullFrameSigreturn = true
		}
		var procs []*kernel.Process
		_, _ = sup.Run(func(n int, p *kernel.Process) { procs = append(procs, p) })
		want := 3 // once per exec boot
		if respawn == RespawnFork {
			want = 1 // once on the template; forks inherit
		}
		if calls != want {
			t.Errorf("%v: Configure ran %d times, want %d", respawn, calls, want)
		}
		for i, p := range procs {
			if !p.FullFrameSigreturn {
				t.Errorf("%v: incarnation %d did not inherit configuration", respawn, i)
			}
		}
	}
}

func TestBackoffNoShiftOverflowPastRestart63(t *testing.T) {
	// Regression: with a huge cap, restart counts past 63 used to shift
	// the delay's top bit out of the uint64 and wrap toward zero —
	// handing late brute-force incarnations free restarts.
	pol := Policy{BackoffBase: 1, BackoffCap: math.MaxUint64}
	var prev uint64
	for r := 0; r < 200; r++ {
		d := pol.backoff(r)
		if d < prev {
			t.Fatalf("restart %d: backoff %d < restart %d's %d (overflow wrap)", r, d, r-1, prev)
		}
		prev = d
	}
	if got := pol.backoff(64); got != math.MaxUint64 {
		t.Errorf("restart 64 backoff = %d, want saturation at the cap", got)
	}
	if got := pol.backoff(200); got != math.MaxUint64 {
		t.Errorf("restart 200 backoff = %d, want saturation at the cap", got)
	}
	// Odd bases cross 2^63 mid-doubling; they must saturate, not wrap.
	odd := Policy{BackoffBase: 3, BackoffCap: math.MaxUint64}
	if got := odd.backoff(100); got < 1<<62 {
		t.Errorf("odd-base restart 100 backoff = %d, wrapped", got)
	}
	// The documented cap semantics are unchanged below the overflow
	// region.
	capped := Policy{BackoffBase: 100, BackoffCap: 400}
	for r, want := range []uint64{100, 200, 400, 400} {
		if got := capped.backoff(r); got != want {
			t.Errorf("capped restart %d = %d, want %d", r, got, want)
		}
	}
}

func TestRunCtxStopsRestartingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := New(image(t, spinProgram()), seededKernel(1), Policy{
		MaxRestarts: 50,
		Budget:      2_000,
	})
	attempts := 0
	_, err := sup.RunCtx(ctx, func(n int, _ *kernel.Process) {
		attempts = n + 1
		if n == 2 {
			cancel()
		}
	})
	if !errors.Is(err, kernel.ErrCancelled) {
		t.Fatalf("err = %v, want kernel.ErrCancelled", err)
	}
	if errors.Is(err, ErrRestartsExhausted) {
		t.Error("cancellation misreported as restart exhaustion")
	}
	if attempts != 3 {
		t.Errorf("ran %d attempts after cancel at attempt 2, want 3", attempts)
	}
	// The cancelled attempt is logged but carries no synthesized kill:
	// the process was abandoned, not killed.
	last := sup.Attempts[len(sup.Attempts)-1]
	if last.Kill != nil {
		t.Errorf("cancelled attempt filed a post-mortem: %v", last.Kill)
	}
}

// TestKillInfoConcurrentSupervisedRestarts runs many supervisors over
// the same compiled image at once (the serving layer's worker-pool
// shape) and checks every attempt's post-mortem is complete and
// task-accurate. Under -race this also proves Boot/Run/KillInfo share
// no unsynchronized state across supervisors.
func TestKillInfoConcurrentSupervisedRestarts(t *testing.T) {
	img := image(t, spinProgram())
	const supervisors = 8
	sups := make([]*Supervisor, supervisors)
	var wg sync.WaitGroup
	for i := 0; i < supervisors; i++ {
		sups[i] = New(img, seededKernel(int64(i+1)), Policy{
			Respawn:     RespawnExec,
			MaxRestarts: 3,
			Budget:      2_000,
		})
		wg.Add(1)
		go func(s *Supervisor) {
			defer wg.Done()
			_, _ = s.Run(nil)
		}(sups[i])
	}
	wg.Wait()
	for i, s := range sups {
		if len(s.Attempts) != 4 {
			t.Fatalf("supervisor %d logged %d attempts, want 4", i, len(s.Attempts))
		}
		for _, a := range s.Attempts {
			if a.Kill == nil {
				t.Fatalf("supervisor %d attempt %d: no post-mortem", i, a.N)
			}
			if a.Kill.TaskID != 0 {
				t.Errorf("supervisor %d attempt %d: post-mortem names task %d", i, a.N, a.Kill.TaskID)
			}
			if a.Kill.Symbol == "" {
				t.Errorf("supervisor %d attempt %d: post-mortem has no symbol", i, a.N)
			}
			if !errors.Is(a.Kill.Cause, cpu.ErrStepLimit) {
				t.Errorf("supervisor %d attempt %d: cause %v, want step limit", i, a.N, a.Kill.Cause)
			}
		}
	}
}

func TestMutateCanRepairTheVictim(t *testing.T) {
	// The mutate callback models the attacker, but the supervisor
	// contract is just "runs before the attempt executes": use it to
	// count incarnations and confirm the final process is returned.
	seen := 0
	sup := New(image(t, cleanProgram()), seededKernel(1), Policy{MaxRestarts: 5})
	p, err := sup.Run(func(n int, _ *kernel.Process) { seen = n + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("clean victim ran %d times, want 1", seen)
	}
	if p == nil || p.ExitCode != 0 {
		t.Errorf("final process %+v", p)
	}
}

// TestSharedKeysExactUnderProbeCollision: two distinct key sets whose
// instruction-key PACs collide on one probe pointer must not read as
// shared. A birthday search over seeded boots finds such a pair within
// a few hundred draws at the default 16-bit PAC; a single-probe check
// would call the pair shared.
func TestSharedKeysExactUnderProbeCollision(t *testing.T) {
	const ptr, mod = 0x10040, 0xfeed
	img := image(t, cleanProgram())
	seen := map[uint64]*kernel.Process{}
	for seed := int64(1); seed <= 20_000; seed++ {
		p, err := img.Boot(seededKernel(seed))
		if err != nil {
			t.Fatal(err)
		}
		sealed := p.Auth.AddPAC(pa.KeyIA, ptr, mod)
		q, ok := seen[sealed]
		if !ok {
			seen[sealed] = p
			continue
		}
		if _, probe := p.Auth.Auth(pa.KeyIA, q.Auth.AddPAC(pa.KeyIA, ptr, mod), mod); !probe {
			t.Fatalf("seed %d: colliding seals do not cross-authenticate", seed)
		}
		if SharedKeys(p, q) || SharedKeys(q, p) {
			t.Fatalf("seed %d: distinct key sets with one colliding probe PAC reported as shared (after %d boots)", seed, len(seen)+1)
		}
		return
	}
	t.Fatal("no probe collision within 20000 boots")
}
