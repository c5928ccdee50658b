package main

import (
	"strings"

	"tako/internal/system"
)

// simWork is the simulated work of one repetition, summed over the runs
// it executed (cache-served runs re-simulate nothing). Every field is
// deterministic for a given seed: a host-only change must leave all of
// them identical.
type simWork struct {
	accesses     uint64 // core + engine L1 lookups (fig25full: ff + window)
	kernelEvents uint64
	l1Lookups    uint64
	l1Misses     uint64
	l2Lookups    uint64
	l2Misses     uint64
	l3Lookups    uint64
	l3Misses     uint64
	cohInval     uint64
	backInval    uint64
	prefetch     uint64
	rmo          uint64
	dram         uint64
	flitHops     uint64
	callbacks    uint64
	ffAccesses   uint64
	dirProbe     meanAcc
	dramWait     meanAcc
	cbQueue      meanAcc
}

// meanAcc accumulates a histogram mean across runs.
type meanAcc struct {
	sum   float64
	count uint64
}

func (m meanAcc) mean() float64 { return ratio(m.sum, float64(m.count)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// baseName strips a metric's labels: "dram.reads{ctrl=1}" → "dram.reads".
func baseName(n string) string {
	if i := strings.IndexByte(n, '{'); i >= 0 {
		return n[:i]
	}
	return n
}

func (w *simWork) add(r *system.RunRecord) {
	w.kernelEvents += r.KernelEvents
	c := map[string]uint64{}
	for _, s := range r.Metrics.Counters {
		c[baseName(s.Name)] += s.Value
	}
	l1 := c["l1.hits"] + c["l1.misses"] + c["el1.hits"] + c["el1.misses"]
	w.accesses += l1
	w.l1Lookups += l1
	w.l1Misses += c["l1.misses"] + c["el1.misses"]
	w.l2Lookups += c["l2.hits"] + c["l2.misses"]
	w.l2Misses += c["l2.misses"]
	w.l3Lookups += c["l3.hits"] + c["l3.misses"]
	w.l3Misses += c["l3.misses"]
	w.cohInval += c["coh.invalidations"]
	w.backInval += c["l3.backinval"]
	w.prefetch += c["prefetch.issued"]
	w.rmo += c["rmo.issued"]
	w.dram += c["dram.reads"] + c["dram.writes"]
	w.flitHops += c["noc.flithops"]
	w.callbacks += c["cb.onMiss"] + c["cb.onEviction"] + c["cb.onWriteback"]
	w.ffAccesses += c["ff.accesses"]
	for _, h := range r.Metrics.Histograms {
		var m *meanAcc
		switch baseName(h.Name) {
		case "dir.probe.len":
			m = &w.dirProbe
		case "dram.queue.wait":
			m = &w.dramWait
		case "cb.queue.cycles":
			m = &w.cbQueue
		default:
			continue
		}
		m.sum += h.Sum
		m.count += h.Count
	}
}

// metrics names the simulated-work metrics.
func (w simWork) metrics() map[string]float64 {
	f := func(n uint64) float64 { return float64(n) }
	return map[string]float64{
		"sim.accesses":                f(w.accesses),
		"sim.kernel_events":           f(w.kernelEvents),
		"sim.events_per_access":       ratio(f(w.kernelEvents), f(w.accesses)),
		"cache.l1_lookups":            f(w.l1Lookups),
		"cache.l1_miss_ratio":         ratio(f(w.l1Misses), f(w.l1Lookups)),
		"cache.l2_lookups":            f(w.l2Lookups),
		"cache.l2_miss_ratio":         ratio(f(w.l2Misses), f(w.l2Lookups)),
		"cache.l3_lookups":            f(w.l3Lookups),
		"cache.l3_miss_ratio":         ratio(f(w.l3Misses), f(w.l3Lookups)),
		"hier.coh_invalidations":      f(w.cohInval),
		"hier.l3_backinval":           f(w.backInval),
		"hier.prefetch_issued":        f(w.prefetch),
		"hier.rmo_issued":             f(w.rmo),
		"flat.dir_probe_len_mean":     w.dirProbe.mean(),
		"dram.accesses":               f(w.dram),
		"dram.queue_wait_mean_cycles": w.dramWait.mean(),
		"noc.flit_hops":               f(w.flitHops),
		"engine.callbacks":            f(w.callbacks),
		"engine.cb_queue_cycles_mean": w.cbQueue.mean(),
		"analytic.ff_accesses":        f(w.ffAccesses),
	}
}
