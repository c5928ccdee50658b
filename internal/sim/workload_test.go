package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// buildShardedWorkload wires a deterministic program of tiles logical
// tiles onto k, in the cross-tile shapes the hierarchy produces: futures
// completed by another tile's process, parked processes woken by
// another tile's wake event, processes spawned for another tile (the
// message and engine-callback shapes), and local callback chains and
// sleeps with seeded timing. Every trace line ends in " at <cycle>".
//
// The program's timing does not depend on how same-cycle ties are
// broken: each delay comes from the acting tile's own seeded generator,
// and every wake is the only one its target is parked for. A Chooser
// therefore reorders lines within a cycle but never moves one to
// another cycle.
func buildShardedWorkload(k *Kernel, tiles int) *[]string {
	const (
		delayBase = 3
		steps     = 40
		rounds    = 16
	)
	if tiles < 3 {
		panic("workload needs ≥3 tiles")
	}
	trace := new([]string)
	record := func(format string, args ...any) {
		*trace = append(*trace, fmt.Sprintf(format, args...))
	}

	// futures[i][r] is waited on by tile i's waiter and completed by tile
	// (i-1)'s driver at its step r.
	futures := make([][]*Future, tiles)
	for i := range futures {
		futures[i] = make([]*Future, rounds)
		for r := range futures[i] {
			futures[i][r] = NewFuture(k)
		}
	}

	// Blocker i parks with block() and is woken rounds times, at least a
	// cycle apart, by tile (i-2)'s driver.
	blockers := make([]*Proc, tiles)
	for i := 0; i < tiles; i++ {
		i := i
		k.Go("waiter", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Wait(futures[i][r])
				record("tile%d waiter round %d woke at %d", i, r, p.Now())
			}
		})
		blockers[i] = k.Go("blocker", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.block()
				record("tile%d blocker round %d at %d", i, r, p.Now())
			}
		})
	}
	for i := 0; i < tiles; i++ {
		i := i
		k.Go("driver", func(p *Proc) {
			rng := rand.New(rand.NewSource(int64(i) + 42))
			for step := 0; step < steps; step++ {
				step := step
				record("tile%d drive step %d at %d", i, step, p.Now())
				k.After(Cycle(rng.Intn(3)), func() {
					record("tile%d local fn of step %d at %d", i, step, k.Now())
				})
				dest := (i + 1 + rng.Intn(tiles-1)) % tiles
				delay := Cycle(delayBase + rng.Intn(4))
				k.Go("msg", func(q *Proc) {
					q.Sleep(delay)
					record("tile%d msg from %d step %d at %d", dest, i, step, q.Now())
				})
				if step < rounds {
					futures[(i+1)%tiles][step].CompleteAt(p.Now() + delay)
					k.wakeAt(p.Now()+delayBase, blockers[(i+2)%tiles])
				}
				if step%4 == 0 {
					// The engine-callback shape: spawn a callback process
					// for a remote tile, which does local work and acks
					// the origin, blocked on the round trip.
					cbDst := (i + 1 + tiles/2) % tiles
					ack := NewFuture(k)
					k.Go("cb", func(q *Proc) {
						record("tile%d cb for %d step %d at %d", cbDst, i, step, q.Now())
						q.Sleep(Cycle(1 + step%3))
						ack.CompleteAt(q.Now() + delayBase)
					})
					p.Wait(ack)
					record("tile%d cb ack step %d at %d", i, step, p.Now())
				}
				p.Sleep(Cycle(1 + rng.Intn(4)))
			}
		})
	}
	return trace
}

// runShardedWorkload runs the workload with chooser resolving same-cycle
// ties (nil: the default FIFO order) and returns its trace lines,
// failing t if any process is left parked.
func runShardedWorkload(t *testing.T, tiles int, chooser Chooser) []string {
	t.Helper()
	k := NewKernel()
	k.SetChooser(chooser)
	trace := buildShardedWorkload(k, tiles)
	k.Run()
	if blocked := k.Blocked(); len(blocked) != 0 {
		t.Fatalf("deadlocked procs after run: %v", blocked)
	}
	k.Release()
	return *trace
}

// checkTieOrderOnly fails t unless got is a reordering of the FIFO trace
// want that keeps every line's cycle and never goes back in time.
func checkTieOrderOnly(t *testing.T, got, want []string) {
	t.Helper()
	var last uint64
	for i, line := range got {
		at, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("line %d %q has no cycle", i+1, line)
		}
		if at < last {
			t.Fatalf("line %d %q goes back from cycle %d", i+1, line, last)
		}
		last = at
	}
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		t.Errorf("tie order moved events between cycles:\n%s", firstDiff(strings.Join(g, "\n"), strings.Join(w, "\n")))
	}
}

// reversedChooser always runs the newest of a same-cycle batch, the
// opposite of the FIFO order.
type reversedChooser struct{}

func (reversedChooser) Choose(n int) int { return n - 1 }

// rotatingChooser runs the i-th candidate at the i-th choice point,
// modulo the batch size.
type rotatingChooser struct{ i int }

func (c *rotatingChooser) Choose(n int) int {
	c.i++
	return c.i % n
}

// byteChooser resolves the i-th choice point with data[i mod len(data)]
// modulo the batch size; empty data is the FIFO order.
type byteChooser struct {
	data []byte
	i    int
}

func (c *byteChooser) Choose(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[c.i%len(c.data)]
	c.i++
	return int(b) % n
}

// TestShardedDrainPermutationInvariant pins what a tie-breaking Chooser
// may change: on the 16-tile workload, running each same-cycle batch
// newest-first, or a rotating pick, reorders the trace only within a
// cycle. Every line keeps its cycle, the run never goes back in time and
// every process finishes.
func TestShardedDrainPermutationInvariant(t *testing.T) {
	const tiles = 16
	want := runShardedWorkload(t, tiles, nil)
	if len(want) < 1000 {
		t.Fatalf("reference workload too shallow: %d trace lines", len(want))
	}
	choosers := map[string]Chooser{
		"reversed": reversedChooser{},
		"rotating": &rotatingChooser{},
	}
	for name, c := range choosers {
		t.Run(name, func(t *testing.T) {
			got := runShardedWorkload(t, tiles, c)
			if slices.Equal(got, want) {
				t.Fatalf("chooser %q left the FIFO order unchanged", name)
			}
			checkTieOrderOnly(t, got, want)
		})
	}
}

// FuzzChooserDrainOrder drives the 16-tile workload's tie-breaking from
// the fuzz bytes (see byteChooser). Every input must run to completion
// with no parked process, replay identically, keep each line's cycle and
// never go back in time; the empty input is the FIFO run itself.
func FuzzChooserDrainOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 7, 255, 3})
	f.Add([]byte{13, 13, 13, 13, 13, 13, 13, 13})
	const tiles = 16
	var fifo []string
	f.Fuzz(func(t *testing.T, data []byte) {
		if fifo == nil {
			fifo = runShardedWorkload(t, tiles, nil)
		}
		got := runShardedWorkload(t, tiles, &byteChooser{data: data})
		if again := runShardedWorkload(t, tiles, &byteChooser{data: data}); !slices.Equal(got, again) {
			t.Fatalf("the same choices replayed differently:\n%s", firstDiff(strings.Join(again, "\n"), strings.Join(got, "\n")))
		}
		if len(data) == 0 && !slices.Equal(got, fifo) {
			t.Fatalf("empty input differs from the FIFO run:\n%s", firstDiff(strings.Join(got, "\n"), strings.Join(fifo, "\n")))
		}
		checkTieOrderOnly(t, got, fifo)
	})
}

// TestShardedPanicPropagation: a panic in a process surfaces on the Run
// caller as the usual ProcPanic, and when two processes panic in the
// same cycle the first by (time, sequence) wins.
func TestShardedPanicPropagation(t *testing.T) {
	t.Run("parts=1", func(t *testing.T) {
		k := NewKernel()
		for _, id := range []int{2, 1} {
			id := id
			k.Go(fmt.Sprintf("bomb%d", id), func(p *Proc) {
				p.Sleep(10)
				panic(fmt.Sprintf("boom%d", id))
			})
		}
		defer func() {
			r := recover()
			pp, ok := r.(*ProcPanic)
			if !ok {
				t.Fatalf("want *ProcPanic, got %T: %v", r, r)
			}
			if pp.Proc != "bomb2" || pp.Value != "boom2" {
				t.Fatalf("want the first-scheduled panic bomb2/boom2, got %s/%v", pp.Proc, pp.Value)
			}
			if k.Now() != 10 {
				t.Fatalf("panic surfaced at cycle %d, want 10", k.Now())
			}
			k.Shutdown()
		}()
		k.Run()
	})
}

// TestShardedBlockedReportsDeadlock: a process parked forever is visible
// through Blocked, a process that finished is not, and Shutdown unwinds
// the parked one.
func TestShardedBlockedReportsDeadlock(t *testing.T) {
	k := NewKernel()
	f := NewFuture(k)
	k.Go("stuck", func(p *Proc) {
		p.Wait(f) // never completed
	})
	k.Go("finisher", func(p *Proc) {
		p.Sleep(5)
	})
	k.Run()
	if blocked := k.Blocked(); len(blocked) != 1 || blocked[0] != "stuck" {
		t.Fatalf("Blocked = %v, want [stuck]", blocked)
	}
	if k.Now() != 5 {
		t.Fatalf("run ended at cycle %d, want 5", k.Now())
	}
	k.Shutdown()
	if blocked := k.Blocked(); len(blocked) != 0 {
		t.Fatalf("still blocked after Shutdown: %v", blocked)
	}
}

// TestShardedAllocsPerEvent is the zero-alloc gate for interleaved
// per-tile load: once the queue and the proc pool are warm, eight
// callback chains that each spawn a process every eighth link stay
// under 0.01 allocations per executed event.
func TestShardedAllocsPerEvent(t *testing.T) {
	const (
		chains   = 8
		perChain = 5000
	)
	k := NewKernel()
	hop := func(p *Proc) {}
	type load struct {
		n    int
		fn   func()
		kick func(p *Proc)
	}
	loads := make([]*load, chains)
	for i := range loads {
		l := &load{}
		l.fn = func() {
			if l.n--; l.n <= 0 {
				return
			}
			if l.n%8 == 0 {
				k.Go("hop", hop)
			}
			k.After(1, l.fn)
		}
		l.kick = func(p *Proc) { k.After(1, l.fn) }
		loads[i] = l
	}
	run := func() {
		for _, l := range loads {
			l.n = perChain
			k.Go("kick", l.kick)
		}
		k.Run()
	}
	if events := k.Events(); events != 0 {
		t.Fatalf("expected a fresh kernel, saw %d events", events)
	}
	avg := testing.AllocsPerRun(5, run)
	perRun := k.Events() / 6 // warm-up + 5 measured runs
	if perEvent := avg / float64(perRun); perEvent > 0.01 {
		t.Fatalf("interleaved chains allocate %.4f allocs/event over %d events, want ≤0.01", perEvent, perRun)
	}
	k.Release()
}

// firstDiff renders the first divergent line of two traces, with context.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d lines", len(g), len(w))
}
