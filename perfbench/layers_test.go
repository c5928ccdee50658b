package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// Stacks are listed leaf first, as in a profile sample.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string
		want  string
	}{
		{"proc handoff under a sim.Proc", []string{
			"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm",
			"runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend",
			"runtime.chansend1", "tako/internal/sim.(*Proc).Sleep", "tako/internal/hier.(*Hierarchy).Load",
			"runtime.goexit"}, "proc"},
		{"park on the scheduler stack", []string{
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "proc"},
		{"idle thread woken for a handoff", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.mstart1", "runtime.mstart0", "runtime.mstart"}, "proc"},
		{"channel op in a model package is not a sim.Proc handoff", []string{
			"runtime.chanrecv", "runtime.chanrecv1", "tako/internal/sched.Map", "main.main"}, "other"},
		{"kernel event loop", []string{
			"tako/internal/sim.(*Kernel).pop", "tako/internal/sim.(*Kernel).Run", "runtime.main"}, "sim"},
		{"GC mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{"GC assist under the hierarchy", []string{
			"runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"tako/internal/hier.(*Hierarchy).newTxn", "runtime.goexit"}, "gc"},
		{"allocation under the analytic model", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"tako/internal/analytic.(*Stack).grow", "runtime.goexit"}, "gc"},
		{"inlined cache lookup inside hier", []string{
			"tako/internal/cache.(*Cache).Lookup", "tako/internal/hier.(*Hierarchy).access"}, "cache"},
		{"tlb and flat map to cache", []string{"tako/internal/flat.(*Table).probe"}, "cache"},
		{"noc", []string{"tako/internal/noc.(*Mesh).Route", "tako/internal/hier.x"}, "dram_noc"},
		{"morph callback", []string{"tako/internal/morphs.runPHI.func7", "tako/internal/engine.(*Engines).run"}, "engine"},
		{"workload generation", []string{"math/rand.(*Rand).Int63", "tako/internal/workloads.GenUniform"}, "cpu"},
		{"runtime helper charged to its innermost tako frame", []string{
			"runtime.mapaccess2_fast64", "tako/internal/mem.(*Memory).page"}, "mem"},
		{"analytic", []string{"tako/internal/analytic.(*fenwick).add"}, "analytic"},
		{"unlisted tako package", []string{"tako/internal/stats.(*Counter).Inc", "tako/internal/hier.x"}, "other"},
		{"pure runtime outside the scheduler", []string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1", "runtime.mstart"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestReduceProfileSumsToTotal profiles real work in this process and
// checks that decoding finds samples and that the layer table sums to
// the profile total exactly.
func TestReduceProfileSumsToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	byLayer, total, err := reduceProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile total %d ns, want > 0", total)
	}
	var sum int64
	for l, ns := range byLayer {
		if layerIndex(l) < 0 {
			t.Errorf("sample charged to unknown layer %q", l)
		}
		sum += ns
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, profile total %d ns", sum, total)
	}
}

var sink int

func layerIndex(l string) int {
	for i, x := range layers {
		if x == l {
			return i
		}
	}
	return -1
}

// TestWalkFieldsPackedAndUnpacked decodes a hand-built Sample message
// with location ids in both protobuf encodings.
func TestWalkFieldsPackedAndUnpacked(t *testing.T) {
	// field 1 (location_id) packed: key 0x0a, len 2, values 3, 4;
	// field 1 unpacked: key 0x08, value 5; field 2 (value) unpacked: key 0x10, value 7.
	msg := []byte{0x0a, 0x02, 0x03, 0x04, 0x08, 0x05, 0x10, 0x07}
	var locs, vals []uint64
	err := walkFields(msg, func(f, w int, v uint64, b []byte) error {
		switch f {
		case 1:
			return appendVarints(w, v, b, func(x uint64) { locs = append(locs, x) })
		case 2:
			return appendVarints(w, v, b, func(x uint64) { vals = append(vals, x) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 || locs[0] != 3 || locs[1] != 4 || locs[2] != 5 || len(vals) != 1 || vals[0] != 7 {
		t.Errorf("decoded locs %v vals %v, want [3 4 5] [7]", locs, vals)
	}
	if err := walkFields([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated message decoded without error")
	}
}
