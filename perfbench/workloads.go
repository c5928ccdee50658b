package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tako/internal/engine"
	"tako/internal/exp"
	"tako/internal/hier"
	"tako/internal/morphs"
	"tako/internal/sched"
	"tako/internal/stats"
	"tako/internal/system"
	"tako/internal/workloads"
)

// defaultSeed is fig13's PHIParams.Seed: with it, phi_pagerank must
// reproduce fig13.golden and fig13's ops golden exactly.
const defaultSeed = 1

// goldenDir holds the committed goldens, read from the tree at run time
// so a change that re-records a golden is checked against its own.
const goldenDir = "internal/exp/testdata"

// workload is one closed-loop batch of simulations. Each repetition
// starts cold once the previous one has ended: globals resets every
// process-global setting the batch depends on, run executes and checks
// the batch, and setup times the public constructors the batch's
// simulations call, with the same parameters.
type workload struct {
	name    string
	workers int  // sched.SetWorkers; 0 = GOMAXPROCS, the CLI default
	cache   bool // morphs.SetRunCache
	seeded  bool // the seed reaches the workload's inputs
	run     func(g *goldens, seed int64) outcome
	setup   func(seed int64) (inputs, machine time.Duration)
}

// outcome is what one repetition of a workload produced.
type outcome struct {
	attempted, failed int
	work              simWork
	// execS is the summed wall time of the simulations executed; with
	// the run cache off the library stamps none, and every simulation
	// executes, so it is the wall time of the experiment calls.
	execS     float64
	cacheHits int
	savedS    float64 // exec time of the originals the hits reused
	headline  string
	problems  []string
}

func (o *outcome) fail(sims int, format string, args ...any) {
	o.failed += sims
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var allWorkloads = []*workload{
	{name: "phi_pagerank", workers: 1, cache: false, seeded: true, run: runPHIPagerank, setup: setupPHI},
	{name: "nvm_txn", workers: 2, cache: true, run: runNVMTxn, setup: setupNVM},
	{name: "scatter_ff", workers: 0, cache: true, run: runScatterFF, setup: setupScatter},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// globals sets every process-global simulator setting explicitly, so no
// repetition inherits run-cache entries or engine modes from an earlier
// one: the CLI's default engine (single-queue kernel, no sharding, no
// fast-forward default, no verification or attribution) at quick scale.
func (w *workload) globals() error {
	sched.SetWorkers(w.workers)
	morphs.SetRunCache(w.cache)
	morphs.ResetRunCache()
	system.SetDefaultTilePar(1)
	system.SetDefaultSharded(false, 0)
	system.SetDefaultFastForward(0, false)
	hier.SetVerifyDefaults(false, 0)
	hier.SetAttributionDefaults(false, 0)
	return exp.SetScale("quick")
}

// goldens are the committed expected outputs.
type goldens struct {
	tables map[string]string
	ops    map[string]uint64 // quick-scale ops per experiment
}

func loadGoldens() (*goldens, error) {
	g := &goldens{tables: map[string]string{}}
	for _, id := range []string{"fig13", "fig19", "fig25full"} {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		g.tables[id] = string(b)
	}
	b, err := os.ReadFile(filepath.Join(goldenDir, "bench_ops.golden.json"))
	if err != nil {
		return nil, fmt.Errorf("read ops golden: %w", err)
	}
	var all map[string]map[string]uint64
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("parse ops golden: %w", err)
	}
	if g.ops = all["quick"]; g.ops == nil {
		return nil, fmt.Errorf("ops golden has no quick scale")
	}
	return g, nil
}

// window is one experiment run inside a metrics-only capture.
type window struct {
	table *stats.Table
	err   error
	wall  time.Duration
	cap   system.CaptureResult
}

// captured runs fn inside a metrics-only capture (no trace sink) and
// turns a panic on the calling goroutine into an error.
func captured(fn func() (*stats.Table, error)) (w window) {
	system.StartCapture(system.CaptureConfig{})
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				w.err = fmt.Errorf("panic: %v", r)
			}
		}()
		w.table, w.err = fn()
	}()
	w.wall = time.Since(start)
	res, err := system.StopCapture()
	if w.err == nil {
		w.err = err
	}
	w.cap = res
	return w
}

func runExperiment(id string) window {
	e, ok := exp.ByID(id)
	if !ok {
		return window{err: fmt.Errorf("experiment %s not registered", id)}
	}
	return captured(func() (*stats.Table, error) { return e.Run(true) })
}

func paperClaim(id string) string {
	e, _ := exp.ByID(id)
	return e.Paper
}

func windowOps(w window) uint64 {
	var n uint64
	for _, r := range w.cap.Runs {
		n += r.Ops
	}
	return n
}

// check applies the output checks to one experiment window of sims
// simulations: Run's error (the drivers verify results against
// functional references), the rendered table against its golden, and
// the summed ops against the ops golden.
func (o *outcome) check(g *goldens, id string, w window, sims int, table, ops bool) {
	o.attempted += sims
	switch {
	case w.err != nil:
		o.fail(sims, "%s: %v", id, w.err)
	case table && w.table.String() != g.tables[id]:
		o.fail(sims, "%s: table differs from %s/%s.golden:\n%s", id, goldenDir, id, w.table.String())
	case ops && windowOps(w) != g.ops[id]:
		o.fail(sims, "%s: ops %d, golden %d", id, windowOps(w), g.ops[id])
	}
}

// phiParams are fig13's quick-scale parameters with the given seed.
func phiParams(seed int64) morphs.PHIParams {
	prm := morphs.DefaultPHIParams()
	prm.V, prm.E = 16*1024, 160*1024
	prm.Tiles, prm.Threads = 8, 8
	prm.Seed = seed
	return prm
}

// runPHIPagerank drives the four PHI variants behind fig13 and renders
// fig13's table from them. Only at the default seed do the goldens
// apply; at any other seed the drivers' functional-reference checks are
// the whole check.
func runPHIPagerank(g *goldens, seed int64) outcome {
	var res map[morphs.PHIVariant]morphs.Result
	w := captured(func() (*stats.Table, error) {
		var err error
		if res, err = morphs.RunPHIAll(phiParams(seed)); err != nil {
			return nil, err
		}
		base := res[morphs.PHIBaseline]
		t := stats.NewTable("Fig 13 — PHI PageRank",
			"variant", "cycles", "speedup", "energy(pJ)", "energy-vs-base")
		for _, v := range morphs.AllPHIVariants {
			r := res[v]
			t.AddRowf(string(v), r.Cycles, r.Speedup(base), r.EnergyPJ,
				fmt.Sprintf("%.0f%%", -100*r.EnergySaving(base)))
		}
		return t, nil
	})
	var o outcome
	golden := seed == defaultSeed
	o.check(g, "fig13", w, len(morphs.AllPHIVariants), golden, golden)
	o.addWindow(w, false)
	if w.err == nil {
		o.headline = fmt.Sprintf("fig13 seed %d: täkō %.3fx, UB %.3fx speedup over baseline | paper: %s",
			seed, res[morphs.PHITako].Speedup(res[morphs.PHIBaseline]),
			res[morphs.PHIUB].Speedup(res[morphs.PHIBaseline]), paperClaim("fig13"))
	}
	return o
}

// runNVMTxn runs fig19 then fig20 as takoreport does: fig20 is served
// entirely from the run cache fig19 filled.
func runNVMTxn(g *goldens, _ int64) outcome {
	var o outcome
	sims := len(nvmQuickSizes) * len(morphs.AllNVMVariants)
	w19 := runExperiment("fig19")
	o.check(g, "fig19", w19, sims, true, true)
	o.addWindow(w19, true)
	w20 := runExperiment("fig20")
	o.check(g, "fig20", w20, sims, false, true)
	o.addWindow(w20, true)
	o.savedS = savedSeconds([]window{w19, w20})
	if w19.err == nil && w20.err == nil {
		o.headline = fmt.Sprintf("fig19: täkō up to %sx speedup | paper: %s; fig20: täkō core-instruction reduction %s | paper: %s",
			maxColumn(w19.table, 4), paperClaim("fig19"),
			strings.Join(column(w20.table, 5), "/"), paperClaim("fig20"))
	}
	return o
}

// runScatterFF runs fig25full's quick tier: an analytical fast-forward
// of the scatter prefix, then a simulated window. The experiment records
// no capture run, so its simulated work comes from its table.
func runScatterFF(g *goldens, _ int64) outcome {
	var o outcome
	w := runExperiment("fig25full")
	o.check(g, "fig25full", w, 1, true, false)
	o.addWindow(w, false)
	if w.err != nil {
		return o
	}
	row := w.table.Rows()[0]
	ff, err1 := strconv.ParseUint(row[3], 10, 64)
	win, err2 := strconv.ParseUint(row[4], 10, 64)
	dram, err3 := strconv.ParseUint(row[9], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		o.fail(1, "fig25full: unreadable table row %q", row)
		return o
	}
	o.work.accesses += ff + win
	o.work.ffAccesses += ff
	o.work.dram += dram
	o.headline = fmt.Sprintf("fig25full quick: %d accesses fast-forwarded + %d simulated, est. L3 miss %s | paper: %s",
		ff, win, row[7], paperClaim("fig25full"))
	return o
}

// addWindow folds one window's executed runs into the outcome.
func (o *outcome) addWindow(w window, stamped bool) {
	for i := range w.cap.Runs {
		if !w.cap.Runs[i].Cached {
			o.work.add(&w.cap.Runs[i])
		}
	}
	o.cacheHits += w.cap.Cached
	if stamped {
		o.execS += w.cap.ExecMS / 1e3
	} else {
		o.execS += w.wall.Seconds()
	}
}

// savedSeconds is the exec time of the original runs that later cache
// hits reused. The capture stamps exec time per window, not per run, so
// each reused original is charged its window's mean exec time — exact
// when a hit window replays whole windows, as fig20 replays fig19.
func savedSeconds(ws []window) float64 {
	type key struct {
		label           string
		cycles, ops, ev uint64
	}
	perRun := map[key]float64{}
	var saved float64
	for _, w := range ws {
		executed := 0
		for _, r := range w.cap.Runs {
			if !r.Cached {
				executed++
			}
		}
		for _, r := range w.cap.Runs {
			k := key{r.Label, r.Cycles, r.Ops, r.KernelEvents}
			if r.Cached {
				saved += perRun[k]
			} else {
				perRun[k] = w.cap.ExecMS / 1e3 / float64(executed)
			}
		}
	}
	return saved
}

func column(t *stats.Table, i int) []string {
	var out []string
	for _, r := range t.Rows() {
		if i < len(r) {
			out = append(out, r[i])
		}
	}
	return out
}

func maxColumn(t *stats.Table, i int) string {
	best, bestS := -1.0, "?"
	for _, s := range column(t, i) {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > best {
			best, bestS = v, s
		}
	}
	return bestS
}

// The setup functions time the public constructors each workload's
// simulations call, with each simulation's parameters: input generation
// (workloads.Gen*, Graph.Layout) and machine construction (system.New).

func setupPHI(seed int64) (inputs, machine time.Duration) {
	prm := phiParams(seed)
	for _, v := range morphs.AllPHIVariants {
		cfg := system.Scaled(prm.Tiles, prm.CacheScale)
		cfg.Core = prm.Core
		cfg.Engine = prm.Engine
		if v == morphs.PHIBaseline || v == morphs.PHIUB {
			cfg.NoTako = true
		}
		if v == morphs.PHIIdeal {
			cfg.Engine = engine.IdealConfig()
		}
		t0 := time.Now()
		s := system.New(cfg)
		t1 := time.Now()
		gr := workloads.GenUniform(prm.V, prm.E, prm.Seed)
		gr.Layout(s.Space, s.H.DRAM.Store())
		machine += t1.Sub(t0)
		inputs += time.Since(t1)
	}
	return inputs, machine
}

// nvmQuickSizes are fig19/fig20's quick-scale transaction sizes.
var nvmQuickSizes = []int{1 << 10, 16 << 10, 128 << 10}

// setupNVM builds fig19's nine machines (3 quick sizes × 3 variants on 4
// tiles); fig20 reuses their runs and builds none. The transactions'
// payloads are closed-form, so there are no inputs to generate.
func setupNVM(int64) (inputs, machine time.Duration) {
	for _, size := range nvmQuickSizes {
		for _, v := range morphs.AllNVMVariants {
			prm := morphs.DefaultNVMParams(size)
			cfg := system.Default(4)
			cfg.Engine = prm.Engine
			if v == morphs.NVMBaseline {
				cfg.NoTako = true
			}
			if v == morphs.NVMIdeal {
				cfg.Engine = engine.IdealConfig()
			}
			t0 := time.Now()
			system.New(cfg)
			machine += time.Since(t0)
		}
	}
	return 0, machine
}

// setupScatter builds fig25full's quick-tier machine. Its edge stream is
// closed-form (workloads.EdgeStream), so there are no inputs to generate.
func setupScatter(int64) (inputs, machine time.Duration) {
	const v, e, window = 128 * 1024, 2 * 1024 * 1024, 16384
	cfg := system.Default(16)
	cfg.NoTako = true
	cfg.FastForward = uint64(v) + 2*uint64(e) - window
	t0 := time.Now()
	system.New(cfg)
	return 0, time.Since(t0)
}
