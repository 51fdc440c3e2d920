package main

import (
	"fmt"
	"math"
	"time"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/par"
	"pacstack/internal/telemetry"
	"pacstack/internal/workload"
)

// table2: regenerate the paper's Table 2 — workload.RunSuite over every
// SPEC-shaped benchmark under every scheme, then workload.Table2. Each
// cell boots once and retires ~330k-650k instructions, so engine
// execution dominates (block execute, PAC memo hits, the memory
// lookaside); pool, snap, serve and the discrete-event simulators
// never run.

// cell is one (benchmark, scheme) measurement.
type cell struct{ cycles, instrs uint64 }

// runCell boots and runs one cell the way workload.RunBenchmark does,
// optionally with kernel telemetry attached.
func runCell(prog *compile.Image, seed int64, cm cpu.CostModel, tel *kernel.Telemetry) (cell, error) {
	k := kernel.New(pa.DefaultConfig())
	k.Seed(seed)
	k.SetTelemetry(tel)
	proc, err := prog.Boot(k)
	if err != nil {
		return cell{}, err
	}
	for _, t := range proc.Tasks {
		t.M.Cost = cm
	}
	if err := proc.Run(50_000_000); err != nil {
		return cell{}, err
	}
	m := proc.Tasks[0].M
	return cell{m.Cycles, m.Instrs}, nil
}

// suiteCells runs every cell of the suite, benchmarks fanned out over
// the par workers, and returns cells indexed [benchmark][scheme].
func suiteCells(seed int64, tel *kernel.Telemetry) ([][]cell, error) {
	cm := cpu.DefaultCostModel()
	out := make([][]cell, len(workload.SPEC))
	err := par.ForEachErr(len(workload.SPEC), func(i int) error {
		prog := workload.SPEC[i].Program(cm)
		out[i] = make([]cell, len(compile.Schemes))
		for j, s := range compile.Schemes {
			img, err := compile.Compile(prog, s, compile.DefaultLayout())
			if err != nil {
				return err
			}
			if out[i][j], err = runCell(img, seed, cm, tel); err != nil {
				return fmt.Errorf("%s/%v: %w", workload.SPEC[i].Name, s, err)
			}
		}
		return nil
	})
	return out, err
}

// checkSuite compares one regeneration's results with the oracle's
// cells. RunBenchmark reports the baseline cell with Instrs 0.
func checkSuite(r *runner, rs []workload.Result, ref [][]cell) {
	r.check(len(rs) == len(workload.SPEC)*len(compile.Schemes), "suite returned %d cells", len(rs))
	for k, res := range rs {
		i, j := k/len(compile.Schemes), k%len(compile.Schemes)
		if i >= len(ref) {
			return
		}
		want := ref[i][j]
		if compile.Schemes[j] == compile.SchemeNone {
			want.instrs = 0
		}
		r.check(res.Benchmark.Name == workload.SPEC[i].Name && res.Scheme == compile.Schemes[j] &&
			res.Cycles == want.cycles && res.Instrs == want.instrs,
			"%s/%v: %d cycles, %d instrs; oracle %d cycles, %d instrs",
			res.Benchmark.Name, res.Scheme, res.Cycles, res.Instrs, want.cycles, want.instrs)
	}
}

// suiteInstrs is the instructions one regeneration retires: every
// benchmark's baseline run plus one run per other scheme.
func suiteInstrs(ref [][]cell) float64 {
	var n uint64
	for _, row := range ref {
		for _, c := range row {
			n += c.instrs
		}
	}
	return float64(n)
}

// modelErrPP is the mean absolute gap, in percentage points, between
// each benchmark's simulated PACStack overhead and the paper's.
func modelErrPP(rs []workload.Result) float64 {
	var sum float64
	n := 0
	for _, res := range rs {
		if res.Scheme == compile.SchemePACStack {
			sum += math.Abs(res.Overhead-res.Benchmark.PaperPACStack) * 100
			n++
		}
	}
	return sum / float64(n)
}

// table2Cases are the benchmarks the traced run's budget and ladder
// serve: one per suite and language.
func table2Cases(r *runner) ([]servedCase, error) {
	var cases []servedCase
	for _, i := range []int{1, 9, 3, 16} {
		cs, err := goldenCase(r, workload.SPEC[i].Name)
		if err != nil {
			return nil, err
		}
		cases = append(cases, cs)
	}
	return cases, nil
}

func runTable2(r *runner) error {
	seed := derive(r.seed, streamSuite, 0)
	restore := cpu.SetBlockCompile(false)
	ref, err := suiteCells(seed, nil)
	restore()
	if err != nil {
		return fmt.Errorf("single-step oracle: %w", err)
	}
	instrs := suiteInstrs(ref)

	cm := cpu.DefaultCostModel()
	setup, setups, err := timeSetup(func() error {
		// Program generation, compilation and a cold boot of every cell:
		// the fixed work each regeneration repeats before executing.
		return par.ForEachErr(len(workload.SPEC), func(i int) error {
			prog := workload.SPEC[i].Program(cm)
			for _, s := range compile.Schemes {
				img, err := compile.Compile(prog, s, compile.DefaultLayout())
				if err != nil {
					return err
				}
				k := kernel.New(pa.DefaultConfig())
				k.Seed(seed)
				if _, err := img.Boot(k); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}

	regen := func(d time.Duration) ([][]workload.Result, []float64, error) {
		var runs [][]workload.Result
		var secs []float64
		for start := time.Now(); len(secs) == 0 || time.Since(start) < d; {
			t := time.Now()
			rs, err := workload.RunSuite(workload.SPEC, compile.Schemes, cm, seed)
			if err != nil {
				return nil, nil, err
			}
			workload.Table2(rs)
			secs = append(secs, time.Since(t).Seconds())
			runs = append(runs, rs)
		}
		return runs, secs, nil
	}

	if r.traced {
		return tracedTable2(r, seed, ref, regen)
	}

	runs, secs, err := regen(r.window)
	if err != nil {
		return err
	}
	rss := rssPeakMB()
	for _, rs := range runs {
		checkSuite(r, rs, ref)
	}
	var rate, mips, latUS []float64
	for _, s := range secs {
		rate = append(rate, 1/s)
		mips = append(mips, instrs/s/1e6)
		latUS = append(latUS, s*1e6)
	}
	tab := workload.Table2(runs[0])
	for _, s := range []compile.Scheme{compile.SchemeShadowStack, compile.SchemePACStackNoMask, compile.SchemePACStack} {
		r.note("Table 2 %-16v SPECrate %.2f%%  SPECspeed %.2f%%", s, 100*tab[s][workload.SPECrate], 100*tab[s][workload.SPECspeed])
	}
	r.note("table2_s = %.6g s (median of %d regenerations)", median(secs), len(secs))
	r.note("model_err_pp = %.6g pp (mean |simulated - paper| PACStack overhead over %d benchmarks)", modelErrPP(runs[0]), len(workload.SPEC))
	r.endToEnd(endToEnd{
		op: "regeneration", rates: rate, mips: mips, latUS: latUS, setup: setup, setups: setups, rss: rss,
		aliases: [3]string{"1/table2_s", "regeneration p50", "regeneration tail"},
	})
	return nil
}

// tracedTable2: regenerations alternating untraced (workload.RunSuite)
// and traced — the same cells with the kernel and PA counters and the
// event ring attached — whose registry supplies the counts; then the
// budget and the ladder on one benchmark per suite and language.
func tracedTable2(r *runner, seed int64, ref [][]cell, regen func(time.Duration) ([][]workload.Result, []float64, error)) error {
	tel := telemetry.New(telemetry.Options{})
	ktel := kernelTelemetry(tel.Registry())
	ktel.Events = tel.Log()
	ktel.Chain.Events = tel.Log()
	var pairs [][2]float64
	regens := 0
	for start := time.Now(); time.Since(start) < r.window/2; regens++ {
		runs, secs, err := regen(0) // one regeneration
		if err != nil {
			return err
		}
		checkSuite(r, runs[0], ref)
		t := time.Now()
		cells, err := suiteCells(seed, ktel)
		if err != nil {
			return err
		}
		pairs = append(pairs, [2]float64{1 / secs[0], 1 / time.Since(t).Seconds()})
		for i := range cells {
			for j := range cells[i] {
				r.check(cells[i][j] == ref[i][j], "traced %s/%v: %+v, oracle %+v", workload.SPEC[i].Name, compile.Schemes[j], cells[i][j], ref[i][j])
			}
		}
	}
	r.traceOverhead(pairs)
	snap := tel.Registry().Gather()
	r.zeroCounts()
	hits := float64(counterSum(snap, "pacstack_pa_memo_hits_total"))
	misses := float64(counterSum(snap, "pacstack_pa_memo_misses_total"))
	r.put("pa.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.put("kernel.instrs_per_req", ratio(float64(counterSum(snap, "pacstack_kernel_instrs_total")), float64(regens*len(ref)*len(compile.Schemes))), "count")

	cases, err := table2Cases(r)
	if err != nil {
		return err
	}
	if _, _, err := runBudget(r, cases, r.window/5); err != nil {
		return err
	}
	return runLadder(r, cases, r.window*3/10)
}
