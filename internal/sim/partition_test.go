package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The contract under test: a partitioned Kernel produces a byte-identical
// schedule to the single-queue kernel at every partition width.

// lastChooser always picks the newest event in a same-cycle batch — the
// opposite of the default FIFO resolution, maximally sensitive to batch
// membership changing across partition widths.
type lastChooser struct{}

func (lastChooser) Choose(n int) int { return n - 1 }

// runPartitionedProgram runs a mixed proc/future/callback program on a
// kernel partitioned parts ways and returns its execution trace. The
// program itself is identical for every parts value; only queue
// placement changes.
func runPartitionedProgram(parts int, chooser Chooser) string {
	k := NewKernel()
	if parts > 1 {
		k.Partition(parts)
	}
	k.SetChooser(chooser)
	var trace []string
	for i := 0; i < 6; i++ {
		i := i
		k.GoOn(i, fmt.Sprintf("p%d", i), func(p *Proc) {
			rng := rand.New(rand.NewSource(int64(i) + 7))
			for s := 0; s < 25; s++ {
				s := s
				trace = append(trace, fmt.Sprintf("p%d step %d at %d", i, s, p.Now()))
				k.After(Cycle(rng.Intn(4)), func() {
					trace = append(trace, fmt.Sprintf("fn p%d step %d at %d", i, s, k.Now()))
				})
				if s%3 == 0 {
					f := NewFuture(k)
					f.CompleteAt(p.Now() + Cycle(rng.Intn(5)))
					p.Wait(f)
				} else {
					p.Sleep(Cycle(rng.Intn(3)))
				}
			}
		})
	}
	k.Run()
	k.Release()
	return strings.Join(trace, "\n")
}

// TestPartitionedKernelMatchesSingleQueue pins the property the system
// driver's -tile-par mode relies on: partitioning the kernel's queue
// changes where events are stored but not the (time, sequence) dispatch
// order, so the schedule is byte-identical at every width — with and
// without a Chooser installed (the explorer's hook must see identical
// same-cycle batches).
func TestPartitionedKernelMatchesSingleQueue(t *testing.T) {
	for _, chooser := range []Chooser{nil, lastChooser{}} {
		name := "fifo"
		if chooser != nil {
			name = "chooser"
		}
		t.Run(name, func(t *testing.T) {
			want := runPartitionedProgram(1, chooser)
			if want == "" {
				t.Fatal("program produced no trace")
			}
			for _, parts := range []int{2, 4, 7, 16} {
				if got := runPartitionedProgram(parts, chooser); got != want {
					t.Errorf("partition width %d changed the schedule:\n%s", parts, firstDiff(got, want))
				}
			}
		})
	}
}

// placement maps a workload process to a queue of a partitioned kernel:
// role is 0 for a tile's waiter, 1 for its blocker, 2 for its driver and
// 3 for the per-message and callback processes addressed to it.
type placement func(role, tile int) int

// buildShardedWorkload wires a deterministic program of tiles logical
// tiles onto k, exercising every route between a partitioned kernel's
// queues: futures completed by another tile's process, parked processes
// woken by another tile's wake event, processes spawned onto another
// tile's queue (the message and engine-callback shapes the hierarchy
// uses), and local callback chains and sleeps with seeded timing. place
// only chooses which queue each process lives in; the program and its
// trace are the same for every placement and partition width.
func buildShardedWorkload(k *Kernel, tiles int, place placement) *[]string {
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
		k.GoOn(place(0, i), "waiter", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Wait(futures[i][r])
				record("tile%d waiter round %d woke at %d", i, r, p.Now())
			}
		})
		blockers[i] = k.GoOn(place(1, i), "blocker", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.block()
				record("tile%d blocker round %d at %d", i, r, p.Now())
			}
		})
	}
	for i := 0; i < tiles; i++ {
		i := i
		k.GoOn(place(2, i), "driver", func(p *Proc) {
			rng := rand.New(rand.NewSource(int64(i) + 42))
			for step := 0; step < steps; step++ {
				step := step
				record("tile%d drive step %d at %d", i, step, p.Now())
				k.After(Cycle(rng.Intn(3)), func() {
					record("tile%d local fn of step %d at %d", i, step, k.Now())
				})
				dest := (i + 1 + rng.Intn(tiles-1)) % tiles
				delay := Cycle(delayBase + rng.Intn(4))
				k.GoOn(place(3, dest), "msg", func(q *Proc) {
					q.Sleep(delay)
					record("tile%d msg from %d step %d at %d", dest, i, step, q.Now())
				})
				if step < rounds {
					futures[(i+1)%tiles][step].CompleteAt(p.Now() + delay)
					k.wakeAt(p.Now()+delayBase, blockers[(i+2)%tiles])
				}
				if step%4 == 0 {
					// The engine-callback shape: spawn a callback process
					// on a remote tile's queue, which does local work and
					// acks the origin, blocked on the round trip.
					cbDst := (i + 1 + tiles/2) % tiles
					ack := NewFuture(k)
					k.GoOn(place(3, cbDst), "cb", func(q *Proc) {
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

// runShardedWorkload runs the workload on a kernel partitioned parts ways
// (1: the single-queue reference) and returns its trace, failing t if
// any process is left parked.
func runShardedWorkload(t *testing.T, tiles, parts int, place placement) string {
	t.Helper()
	k := NewKernel()
	if parts > 1 {
		k.Partition(parts)
	}
	trace := buildShardedWorkload(k, tiles, place)
	k.Run()
	if blocked := k.Blocked(); len(blocked) != 0 {
		t.Fatalf("deadlocked procs after run: %v", blocked)
	}
	k.Release()
	return strings.Join(*trace, "\n")
}

// TestShardedDrainPermutationInvariant pins that the dispatch merge over
// a partitioned kernel's queue heads erases where events are stored:
// with the tiles' processes assigned to queues in reverse order, or with
// each tile's roles rotated across different queues, the run matches the
// single-queue reference byte for byte.
func TestShardedDrainPermutationInvariant(t *testing.T) {
	const tiles = 16
	want := runShardedWorkload(t, tiles, 1, func(int, int) int { return 0 })
	if strings.Count(want, "\n") < 1000 {
		t.Fatalf("reference workload too shallow: %d trace lines", strings.Count(want, "\n")+1)
	}
	perms := map[string]placement{
		"reversed": func(_, tile int) int { return tiles - 1 - tile },
		"rotating": func(role, tile int) int { return (tile + 5*role) % tiles },
	}
	for name, place := range perms {
		t.Run(name, func(t *testing.T) {
			if got := runShardedWorkload(t, tiles, tiles, place); got != want {
				t.Errorf("queue placement %q changed the schedule:\n%s", name, firstDiff(got, want))
			}
		})
	}
}

// FuzzShardedDrainOrder feeds arbitrary partition widths and process
// placements to a partitioned kernel and asserts the schedule is the
// single-queue one: the fuzzing analog of
// TestShardedDrainPermutationInvariant. The first byte picks the width,
// and the rest (cycled) pick each process's queue; out-of-range queues
// exercise the fallback to queue 0.
func FuzzShardedDrainOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 7, 255, 3})
	f.Add([]byte{13, 13, 13, 13, 13, 13, 13, 13})
	const tiles = 4
	var want string
	f.Fuzz(func(t *testing.T, data []byte) {
		if want == "" {
			want = runShardedWorkload(t, tiles, 1, func(int, int) int { return 0 })
		}
		parts := 1
		if len(data) > 0 {
			parts = 1 + int(data[0])%(2*tiles+1)
		}
		idx := 0
		place := func(role, tile int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[idx%len(data)])
			idx++
			return (b + role*tiles + tile) % (parts + 1)
		}
		if got := runShardedWorkload(t, tiles, parts, place); got != want {
			t.Errorf("fuzzed placement at width %d changed the schedule:\n%s", parts, firstDiff(got, want))
		}
	})
}

// TestShardedPanicPropagation: a panic in a process on any queue of a
// partitioned kernel surfaces on the Run caller as the usual ProcPanic,
// and when processes on several queues panic in the same cycle the first
// by (time, sequence) wins, exactly as on the single-queue kernel.
func TestShardedPanicPropagation(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			k := NewKernel()
			if parts > 1 {
				k.Partition(parts)
			}
			for _, id := range []int{2, 1} {
				id := id
				k.GoOn(id, fmt.Sprintf("bomb%d", id), func(p *Proc) {
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
}

// TestShardedBlockedReportsDeadlock: a process parked forever on one
// queue of a partitioned kernel is visible through Blocked, processes
// that finished on other queues are not, and Shutdown unwinds it.
func TestShardedBlockedReportsDeadlock(t *testing.T) {
	k := NewKernel()
	k.Partition(4)
	f := NewFuture(k)
	k.GoOn(2, "stuck", func(p *Proc) {
		p.Wait(f) // never completed
	})
	k.GoOn(1, "finisher", func(p *Proc) {
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

// TestShardedAllocsPerEvent is the zero-alloc gate for a partitioned
// kernel: once queues and the proc pool are warm, callback chains on
// every queue, the dispatch merge over the queue heads and processes
// spawned onto a neighbour's queue stay under 0.01 allocations per
// executed event.
func TestShardedAllocsPerEvent(t *testing.T) {
	const (
		shards   = 8
		perShard = 5000
	)
	k := NewKernel()
	k.Partition(shards)
	hop := func(p *Proc) {}
	type load struct {
		n    int
		fn   func()
		kick func(p *Proc)
	}
	loads := make([]*load, shards)
	for i := 0; i < shards; i++ {
		l := &load{}
		next := (i + 1) % shards
		l.fn = func() {
			if l.n--; l.n <= 0 {
				return
			}
			if l.n%8 == 0 {
				k.GoOn(next, "hop", hop)
			}
			k.After(1, l.fn)
		}
		l.kick = func(p *Proc) { k.After(1, l.fn) }
		loads[i] = l
	}
	run := func() {
		for i, l := range loads {
			l.n = perShard
			k.GoOn(i, "kick", l.kick)
		}
		k.Run()
	}
	if events := k.Events(); events != 0 {
		t.Fatalf("expected a fresh kernel, saw %d events", events)
	}
	avg := testing.AllocsPerRun(5, run)
	perRun := k.Events() / 6 // warm-up + 5 measured runs
	if perEvent := avg / float64(perRun); perEvent > 0.01 {
		t.Fatalf("partitioned run allocates %.4f allocs/event over %d events, want ≤0.01", perEvent, perRun)
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
