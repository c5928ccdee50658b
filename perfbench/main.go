// Command perfbench is the simulator's benchmark. It runs one of three
// closed-loop workloads through the public experiment and study APIs,
// checks every simulated output against the committed goldens, and
// prints each metric by name with its unit; the last line of standard
// output is one JSON object with the result.
//
//	perfbench --workload phi_pagerank --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced repetitions: the traced ones arm a CPU
// profile from this process and reduce it to host time by layer
// (layers.go); the untraced ones give the tracing overhead. It runs from
// the root of a checkout of the repository, whose goldens it reads.
// README.md in this directory defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Each run builds a workload's inputs and machines at least
// setupMinReps times and for at least setupMinTime; setup_s is the
// median, steady even where one setup takes milliseconds.
const (
	setupMinReps = 9
	setupMinTime = time.Second
)

type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics --trace 0 and --trace 1 print,
// in order; BENCHMARK.json lists the same names and units.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"sim_accesses_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricSpec {
	var m []metricSpec
	for _, l := range layers {
		m = append(m, metricSpec{l + ".host_ns_per_access", "ns/access"})
	}
	return append(m, []metricSpec{
		{"trace.profile_cpu_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
		{"host.cpu_s", "s"},
		{"host.alloc_bytes_per_access", "B/access"},
		{"sim.accesses", "count"},
		{"sim.kernel_events", "count"},
		{"sim.events_per_access", "ratio"},
		{"sim.host_ns_per_event", "ns/event"},
		{"cache.l1_lookups", "count"},
		{"cache.l1_miss_ratio", "ratio"},
		{"cache.l2_lookups", "count"},
		{"cache.l2_miss_ratio", "ratio"},
		{"cache.l3_lookups", "count"},
		{"cache.l3_miss_ratio", "ratio"},
		{"hier.coh_invalidations", "count"},
		{"hier.l3_backinval", "count"},
		{"hier.prefetch_issued", "count"},
		{"hier.rmo_issued", "count"},
		{"flat.dir_probe_len_mean", "probes"},
		{"dram.accesses", "count"},
		{"dram.queue_wait_mean_cycles", "cycles"},
		{"noc.flit_hops", "count"},
		{"engine.callbacks", "count"},
		{"engine.cb_queue_cycles_mean", "cycles"},
		{"analytic.ff_accesses", "count"},
		{"sched.exec_s", "s"},
		{"sched.busy_frac", "ratio"},
		{"runcache.hits", "count"},
		{"runcache.saved_s", "s"},
		{"setup.inputs_s", "s"},
		{"setup.machine_s", "s"},
		{"failed_frac", "ratio"},
	}...)
}()

// rep is one measured repetition.
type rep struct {
	outcome
	traced  bool
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	peakRSS uint64           // bytes
	layerNS map[string]int64 // traced: profile CPU ns by layer
	profNS  int64            // traced: profile total
}

func main() {
	workloadName := flag.String("workload", "", "workload: phi_pagerank, nvm_txn or scatter_ff")
	seed := flag.Int64("seed", defaultSeed, "input seed (phi_pagerank's PHIParams.Seed; the other workloads expose none and run fixed)")
	seconds := flag.Int("seconds", 10, "measure repetitions for this many seconds (at least one repetition, or one traced pair)")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloadByName(*workloadName)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {phi_pagerank|nvm_txn|scatter_ff}, --trace {0|1}, --seconds >= 1\n")
		os.Exit(2)
	}
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		os.Exit(1)
	}
	printHost()
	fmt.Println("model: a scaled reproduction of the paper's machine; its numbers have not been validated against hardware")
	if !w.seeded && *seed != defaultSeed {
		fmt.Printf("note: %s exposes no seed through its public API and runs fixed; --seed %d is ignored\n", w.name, *seed)
	}

	inputs, machine, setupS := measureSetup(w, *seed)

	var reps []rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < time.Duration(*seconds)*time.Second {
		for _, traced := range []bool{false, true}[:*traceFlag+1] {
			r, err := runRep(w, g, *seed, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d traced=%v wall %.3fs cpu %.3fs peak RSS %.1f MB\n",
				len(reps), traced, r.wall.Seconds(), r.cpu.Seconds(), float64(r.peakRSS)/(1<<20))
			reps = append(reps, r)
		}
	}

	attempted, failed := 0, 0
	for i, r := range reps {
		attempted += r.attempted
		failed += r.failed
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
		}
		if r.work != reps[0].work {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: repetition %d's simulated work differs from repetition 0's: %+v vs %+v\n",
				i, r.work, reps[0].work)
			failed += r.attempted - r.failed
		}
	}
	fmt.Printf("headline: %s\n", reps[0].headline)

	var untraced, traced []rep
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	spec, m := endToEnd, endToEndMetrics(untraced, setupS)
	if *traceFlag == 1 {
		spec, m = perLayer, perLayerMetrics(w, untraced, traced, inputs, machine, ratio(float64(failed), float64(attempted)))
	}

	fmt.Printf("%s: %d repetitions (%d traced), %d simulations attempted, %d failed, seed %d\n",
		w.name, len(reps), len(traced), attempted, failed, *seed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, s := range spec {
		v := m[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("  %-32s %16.6g %s\n", s.name, v, s.unit)
		out.Metrics[s.name] = value{v, s.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func endToEndMetrics(untraced []rep, setupS float64) map[string]float64 {
	return map[string]float64{
		"wall_s":             median(untraced, func(r rep) float64 { return r.wall.Seconds() }),
		"sim_accesses_per_s": median(untraced, func(r rep) float64 { return float64(r.work.accesses) / r.wall.Seconds() }),
		"setup_s":            setupS,
		"peak_rss_mb":        median(untraced, func(r rep) float64 { return float64(r.peakRSS) / (1 << 20) }),
	}
}

// perLayerMetrics derives the host-time table from the traced
// repetitions and every other per-layer metric from the untraced ones.
func perLayerMetrics(w *workload, untraced, traced []rep, setupInputs, setupMachine, failedFrac float64) map[string]float64 {
	var acc float64
	var profNS, cpuNS int64
	byLayer := map[string]int64{}
	for _, r := range traced {
		acc += float64(r.work.accesses)
		profNS += r.profNS
		cpuNS += r.cpu.Nanoseconds()
		for l, ns := range r.layerNS {
			byLayer[l] += ns
		}
	}
	m := untraced[0].work.metrics()
	for _, l := range layers {
		m[l+".host_ns_per_access"] = ratio(float64(byLayer[l]), acc)
	}
	wall := median(untraced, func(r rep) float64 { return r.wall.Seconds() })
	m["trace.profile_cpu_frac"] = ratio(float64(profNS), float64(cpuNS))
	m["trace.overhead_frac"] = ratio(median(traced, func(r rep) float64 { return r.wall.Seconds() }), wall) - 1
	m["host.cpu_s"] = median(untraced, func(r rep) float64 { return r.cpu.Seconds() })
	m["host.alloc_bytes_per_access"] = median(untraced, func(r rep) float64 { return ratio(float64(r.alloc), float64(r.work.accesses)) })
	m["sim.host_ns_per_event"] = ratio(wall*1e9, float64(untraced[0].work.kernelEvents))
	execS := median(untraced, func(r rep) float64 { return r.execS })
	workers := w.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m["sched.exec_s"] = execS
	m["sched.busy_frac"] = ratio(execS, wall*float64(workers))
	m["runcache.hits"] = float64(untraced[0].cacheHits)
	m["runcache.saved_s"] = median(untraced, func(r rep) float64 { return r.savedS })
	m["setup.inputs_s"] = setupInputs
	m["setup.machine_s"] = setupMachine
	m["failed_frac"] = failedFrac
	return m
}

// measureSetup builds the workload's inputs and machines repeatedly and
// returns the medians of the input, machine and total times, in seconds.
func measureSetup(w *workload, seed int64) (inputs, machine, total float64) {
	var in, ma, tot []float64
	start := time.Now()
	for len(tot) < setupMinReps || time.Since(start) < setupMinTime {
		if err := w.globals(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		a, b := w.setup(seed)
		in = append(in, a.Seconds())
		ma = append(ma, b.Seconds())
		tot = append(tot, (a + b).Seconds())
	}
	return medianOf(in), medianOf(ma), medianOf(tot)
}

// runRep runs one cold repetition: process globals reset, the previous
// repetition's heap returned to the OS, and the peak-RSS mark reset.
func runRep(w *workload, g *goldens, seed int64, traced bool) (rep, error) {
	if err := w.globals(); err != nil {
		return rep{}, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS. Where the
	// kernel refuses, peak_rss_mb is the high-water mark so far instead.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset peak RSS, reporting the process high-water mark: %v\n", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep{}, err
		}
	}
	start := time.Now()
	r := rep{outcome: w.run(g, seed), traced: traced}
	r.wall = time.Since(start)
	if traced {
		pprof.StopCPUProfile()
	}
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	peak, err := peakRSS()
	if err != nil {
		return rep{}, err
	}
	r.peakRSS = peak
	if traced {
		if r.layerNS, r.profNS, err = reduceProfile(prof.Bytes()); err != nil {
			return rep{}, err
		}
	}
	return r, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's resident-set high-water mark (VmHWM).
func peakRSS() (uint64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb uint64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(rs []rep, f func(rep) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// printHost records the host the result was measured on.
func printHost() {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel, commit)
}
