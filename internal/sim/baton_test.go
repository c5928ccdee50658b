package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [...]"). Tests use it to check which goroutine holds the
// baton when an event runs.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestInlineEventPanicReachesDriver: a callback that panics while a
// blocked process holds the baton runs on that process's goroutine, but
// its panic must reach the driver with the original value — not wrapped
// in a *ProcPanic blamed on the parked process.
func TestInlineEventPanicReachesDriver(t *testing.T) {
	k := NewKernel()
	var procG, eventG uint64
	k.Go("holder", func(p *Proc) {
		procG = goid()
		p.Sleep(10) // blocks holding the baton; the t=5 callback runs inline
		t.Error("holder resumed after the drive panicked")
	})
	k.At(5, func() {
		eventG = goid()
		panic("event assertion")
	})
	func() {
		defer func() {
			r := recover()
			if _, wrapped := r.(*ProcPanic); wrapped {
				t.Fatalf("inline event panic surfaced as %v, want the original value", r)
			}
			if r != "event assertion" {
				t.Fatalf("recovered %v, want the event's panic value", r)
			}
		}()
		k.Run()
	}()
	if eventG != procG {
		t.Fatalf("callback ran on goroutine %d, want the baton holder's %d", eventG, procG)
	}
	if got := k.Blocked(); len(got) != 1 || got[0] != "holder" {
		t.Fatalf("Blocked() = %v, want [holder] parked mid-sleep", got)
	}
	k.Shutdown() // unwinds the parked holder without resuming its task
}

// pingPongKernel builds two procs that alternate cycles, each logging
// (cycle, name) before every sleep; b also takes a same-cycle self-wake
// (Sleep(0)) each round.
func pingPongKernel(log *[]string) *Kernel {
	k := NewKernel()
	k.Go("a", func(p *Proc) {
		for i := 0; i < 4; i++ {
			*log = append(*log, strconv.FormatUint(p.Now(), 10)+"a")
			p.Sleep(2)
		}
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < 4; i++ {
			*log = append(*log, strconv.FormatUint(p.Now(), 10)+"b")
			p.Sleep(0)
			p.Sleep(2)
		}
	})
	k.At(4, func() { *log = append(*log, "4fn") })
	return k
}

// TestStepRunsOneEventAcrossHandoffs: Step must execute exactly one
// event even when that event hands the baton to a process — the process
// hands it back at its next block instead of running on — and stepping
// to completion must reproduce Run's schedule.
func TestStepRunsOneEventAcrossHandoffs(t *testing.T) {
	var want, got []string
	ref := pingPongKernel(&want)
	ref.Run()

	k := pingPongKernel(&got)
	steps := 0
	for {
		before := k.Events()
		if !k.Step() {
			if k.Events() != before {
				t.Fatalf("Step reported no event but Events() moved %d → %d", before, k.Events())
			}
			break
		}
		steps++
		if k.Events() != before+1 {
			t.Fatalf("step %d ran %d events, want 1", steps, k.Events()-before)
		}
	}
	if uint64(steps) != ref.Events() {
		t.Fatalf("stepped %d events, Run executed %d", steps, ref.Events())
	}
	if len(got) != len(want) {
		t.Fatalf("stepped schedule %v, Run schedule %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stepped schedule %v, Run schedule %v", got, want)
		}
	}
}

// TestRunUntilBoundsProcHeldDrive: RunUntil(t) must stop at t even when
// the process holding the baton would pop later events itself, return
// control to the caller with the clock at t, and leave the remaining
// schedule for the next drive exactly as a single Run would run it.
func TestRunUntilBoundsProcHeldDrive(t *testing.T) {
	var want []string
	ref := pingPongKernel(&want)
	ref.Run()

	var got []string
	k := pingPongKernel(&got)
	var seen int
	for _, limit := range []Cycle{0, 3, 4, 6} {
		k.RunUntil(limit)
		if k.Now() != limit {
			t.Fatalf("RunUntil(%d) left the clock at %d", limit, k.Now())
		}
		for _, entry := range got[seen:] {
			when, _ := strconv.ParseUint(entry[:1], 10, 64)
			if when > limit {
				t.Fatalf("RunUntil(%d) ran %q", limit, entry)
			}
		}
		seen = len(got)
		if len(k.queue) > 0 && k.queue[0].when <= limit {
			t.Fatalf("RunUntil(%d) left an event at %d", limit, k.queue[0].when)
		}
	}
	k.Run()
	if len(got) != len(want) {
		t.Fatalf("bounded drives %v, Run %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounded drives %v, Run %v", got, want)
		}
	}
}

// TestPooledProcRespawnsInPlace: once a proc finishes it still holds the
// baton; a callback it then runs inline may respawn it from the pool,
// and its coroutine must pick the new task up directly.
func TestPooledProcRespawnsInPlace(t *testing.T) {
	k := NewKernel()
	var firstG, eventG, secondG uint64
	first := k.Go("first", func(p *Proc) {
		firstG = goid()
		p.Sleep(1)
	})
	var second *Proc
	k.At(2, func() {
		eventG = goid()
		second = k.Go("second", func(p *Proc) {
			secondG = goid()
			p.Sleep(1)
		})
	})
	k.Run()
	if second != first {
		t.Fatal("respawn did not recycle the finished proc")
	}
	if eventG != firstG || secondG != firstG {
		t.Fatalf("goroutines: first task %d, respawning event %d, second task %d; want one goroutine",
			firstG, eventG, secondG)
	}
	if !second.Done() || k.Now() != 3 {
		t.Fatalf("respawned task did not finish: done=%v now=%d", second.Done(), k.Now())
	}
	k.Release()
}

// waitGoroutines waits for exited goroutines to leave the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownAndReleaseRestoreGoroutines: Shutdown must retire never-
// started, parked-mid-run and pooled processes, and Release the pool of
// a finished run, leaving no goroutine behind. A never-started process
// must not run its task, whether its coroutine is fresh (stop before the
// first next skips the body) or pooled after an earlier task.
func TestShutdownAndReleaseRestoreGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	k := NewKernel()
	for i := 0; i < 2; i++ { // both recycled by never-started below
		k.Go("finished", func(p *Proc) { p.Sleep(1) })
	}
	for i := 0; i < 3; i++ {
		k.Go("parked", func(p *Proc) {
			p.Sleep(5)
			p.Sleep(100) // still asleep when the drive stops
		})
	}
	k.RunUntil(10)
	for i := 0; i < 3; i++ { // two pooled coroutines and one fresh
		k.Go("never-started", func(p *Proc) { t.Error("never-started proc ran") })
	}
	if got := len(k.Blocked()); got != 3 {
		t.Fatalf("%d procs parked mid-run, want 3", got)
	}
	k.Shutdown()
	waitGoroutines(t, base)

	k = NewKernel()
	for i := 0; i < 4; i++ {
		k.Go("worker", func(p *Proc) { p.Sleep(Cycle(i)) })
	}
	k.Run()
	k.Release()
	waitGoroutines(t, base)
}

// TestIdleProcPoolBounded: a burst of processes finishing together must
// leave at most maxIdleProcs coroutines in the pool. Each proc finishing
// past the cap stops the longest-idle pooled coroutine from inside its
// own coroutine. The retired procs wait as spares; respawned with fresh
// coroutines they must run handoff-heavy tasks exactly as on a fresh
// kernel, and Release must restore the goroutine count.
func TestIdleProcPoolBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	const burst = 4 * maxIdleProcs
	respawn := func(k *Kernel, log *[]string) {
		start := k.Now()
		for i := 0; i < burst; i++ {
			k.Go("again", func(p *Proc) {
				for r := 0; r < 3; r++ {
					p.Sleep(Cycle(1 + i%7))
					*log = append(*log, fmt.Sprintf("%d:%d", p.Now()-start, i))
				}
			})
		}
		k.Run()
	}

	k := NewKernel()
	for i := 0; i < burst; i++ {
		k.Go("burst", func(p *Proc) { p.Sleep(Cycle(1 + i%3)) })
	}
	k.Run()
	// Only a finishing proc calls retireIdle during a run, so spares
	// before any Release prove the nested stops ran.
	if len(k.freeProcs) != maxIdleProcs || len(k.spareProcs) != burst-maxIdleProcs {
		t.Fatalf("after burst: %d pooled, %d spare; want %d, %d",
			len(k.freeProcs), len(k.spareProcs), maxIdleProcs, burst-maxIdleProcs)
	}
	waitGoroutines(t, base+maxIdleProcs)

	var got, want []string
	respawn(k, &got) // reuses every pooled proc, restarting retired coroutines
	if len(k.procs) != burst {
		t.Fatalf("respawn allocated %d new procs, want 0", len(k.procs)-burst)
	}
	ref := NewKernel()
	respawn(ref, &want)
	ref.Release()
	if !slices.Equal(got, want) {
		t.Fatalf("respawned schedule differs from a fresh kernel's:\n got %v\nwant %v", got, want)
	}
	k.Release()
	waitGoroutines(t, base)
}

// panickingTask is a named task, so its frame can be found in a
// captured stack.
func panickingTask(p *Proc) {
	p.Sleep(3)
	panic("task assertion")
}

// TestTaskPanicReachesDriverAsProcPanic: a task that panics after a
// handoff must surface on the driver as a *ProcPanic carrying the task's
// own stack, not as iter.Pull's re-raise of the bare value.
func TestTaskPanicReachesDriverAsProcPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(1) // wakes the panicker by handoff at t=3
		}
	})
	k.Go("panicker", panickingTask)
	var r any
	func() {
		defer func() { r = recover() }()
		k.Run()
	}()
	pp, ok := r.(*ProcPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *ProcPanic", r, r)
	}
	if pp.Proc != "panicker" || pp.Value != "task assertion" {
		t.Fatalf("ProcPanic{Proc: %q, Value: %v}, want panicker / task assertion", pp.Proc, pp.Value)
	}
	if !bytes.Contains(pp.Stack, []byte("sim.panickingTask")) {
		t.Fatalf("captured stack lacks the task's frame:\n%s", pp.Stack)
	}
	k.Shutdown()
	waitGoroutines(t, base)
}
