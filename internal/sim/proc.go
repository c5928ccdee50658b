package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated software thread. Each Proc runs as an iter.Pull
// coroutine, and only the coroutine holding the kernel's baton runs. A
// Proc that blocks (Sleep, Wait) runs the event loop itself: callback
// and future events run inline on its coroutine, and its own wake
// returns at once with no switch. To wake another process it records
// that process in the kernel's handoff slot and yields to the driver,
// which resumes it: two coroutine switches, no scheduler park. At the
// drive's bound, or when the queue empties, it yields with no handoff.
//
// Finished Procs are pooled, their coroutines suspended after the task,
// and the next Go/GoArgs reuses both. This is safe because every park
// has exactly one wake scheduled (Sleep, Future completion, Semaphore
// handoff, WaitGroup drain, Barrier release), so no stale wake event can
// ever target a recycled Proc. The pool keeps at most maxIdleProcs idle
// coroutines, and Kernel.Release stops them when a run is over.
//
// All Proc methods must be called from the Proc's own coroutine (i.e.,
// inside the function passed to Kernel.Go), except Done.
type Proc struct {
	k       *Kernel
	name    string
	started bool
	done    bool

	// next resumes the coroutine and stop ends it; yield, called inside
	// it, suspends it and reports false once stop was called.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// Task slots: exactly one of fn/fnArgs is set while the proc runs.
	// They live on the Proc so a pooled coroutine picks up its next task
	// without a per-spawn closure; fnArgs carries two scalar arguments so
	// hot spawn sites (prefetches, writeback timing) can share one
	// long-lived function value instead of closing over their operands.
	fn     func(*Proc)
	fnArgs func(*Proc, uint64, uint64)
	a0, a1 uint64
}

// Go creates a simulated process named name running fn, and schedules it
// to start at the current cycle. fn runs on its own coroutine; it blocks
// the simulation only while actively computing between blocking calls.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := k.spawn(name)
	p.fn = fn
	k.scheduleStart(p)
	return p
}

// GoArgs is Go for allocation-sensitive spawn sites: fn is a shared,
// long-lived function value and a0/a1 carry the operands, so issuing a
// process allocates nothing once the proc pool is warm.
func (k *Kernel) GoArgs(name string, fn func(p *Proc, a0, a1 uint64), a0, a1 uint64) *Proc {
	p := k.spawn(name)
	p.fnArgs, p.a0, p.a1 = fn, a0, a1
	k.scheduleStart(p)
	return p
}

// spawn returns a ready-to-start Proc, recycling a pooled one when
// available — possibly the very proc whose coroutine is running the
// spawning event, which then restarts in place. Recycled procs are
// already in k.procs; fresh ones are appended. Spares and fresh procs
// get a new coroutine.
func (k *Kernel) spawn(name string) *Proc {
	var p *Proc
	if n := len(k.freeProcs); n > 0 {
		p = k.freeProcs[n-1]
		k.freeProcs[n-1] = nil
		k.freeProcs = k.freeProcs[:n-1]
	} else if n := len(k.spareProcs); n > 0 {
		p = k.spareProcs[n-1]
		k.spareProcs[n-1] = nil
		k.spareProcs = k.spareProcs[:n-1]
		p.startCoroutine()
	} else {
		p = &Proc{k: k}
		k.procs = append(k.procs, p)
		p.startCoroutine()
	}
	p.name = name
	p.started, p.done = false, false
	return p
}

// maxIdleProcs bounds the idle coroutines a kernel's proc pool keeps. A
// burst of thousands of engine callbacks would otherwise leave thousands
// of idle coroutine stacks behind it for the rest of the run.
const maxIdleProcs = 64

// scheduleStart queues the proc's first dispatch at the current cycle,
// carried directly on the event (no closure).
func (k *Kernel) scheduleStart(p *Proc) {
	k.seq++
	k.push(event{when: k.now, seq: k.seq, proc: p, start: true})
}

// loop is the coroutine body: run a task, return to the free list, pass
// the baton on and yield until the next dispatch, until stop ends it. The
// proc holds the baton, so the free list needs no lock. After a panic or
// a Shutdown abort it yields to the driver without running events.
func (p *Proc) loop(yield func(struct{}) bool) {
	k := p.k
	p.yield = yield
	for {
		aborted := p.runTask()
		p.fn, p.fnArgs = nil, nil
		p.done = true
		k.freeProcs = append(k.freeProcs, p)
		if len(k.freeProcs) > maxIdleProcs {
			k.retireIdle()
		}
		if !aborted && k.fault == nil && k.pass(p) {
			continue // an event run here respawned p: restart in place
		}
		if !yield(struct{}{}) {
			return
		}
	}
}

// ProcPanic wraps a panic raised in a Proc's task. The coroutine body
// captures it, with the task's stack, instead of letting iter.Pull
// re-raise the bare value, and the drive re-raises the wrapped value on
// the driver goroutine, where drivers (tests, the interleaving explorer)
// can recover it.
type ProcPanic struct {
	Proc  string // name of the panicking process
	Value any    // the original panic value
	Stack []byte // stack of the panicking task at capture
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("panic in proc %q: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// procAbort is the sentinel block() throws during Kernel.Shutdown to
// unwind a parked task; runTask swallows it.
type procAbort struct{}

// runTask runs the proc's task, converting an escaping panic into a
// captured ProcPanic for the drive to re-raise. It reports whether
// Shutdown aborted the task.
func (p *Proc) runTask() (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procAbort); ok {
				aborted = true
				return
			}
			p.k.fault = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
	}()
	if p.fn != nil {
		p.fn(p)
	} else {
		p.fnArgs(p, p.a0, p.a1)
	}
	return false
}

// pass runs the event loop on self's coroutine, which holds the baton,
// until it takes a process wake or reaches the drive's bound. It reports
// true when that wake is self's own: self carries on with no switch.
// Otherwise it leaves the woken process, or nil at the bound, in
// k.handoff, and the caller must yield to the driver. A panic from an
// event run here ends the drive: it is handed to the driver with its
// original value rather than blamed on self.
func (k *Kernel) pass(self *Proc) (woke bool) {
	defer func() {
		if r := recover(); r != nil {
			k.fault = r
		}
	}()
	if p := k.nextProc(); p != self {
		k.handoff = p
		return false
	}
	return true
}

// block parks the calling process until its wake event runs, running the
// event loop in the meantime (see pass).
func (p *Proc) block() {
	if !p.k.pass(p) && !p.yield(struct{}{}) {
		panic(procAbort{}) // Shutdown: unwind the task
	}
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated cycle.
func (p *Proc) Now() Cycle { return p.k.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep advances the process by d cycles of simulated time.
func (p *Proc) Sleep(d Cycle) {
	p.k.wakeAfter(d, p)
	p.block()
}

// Wait blocks the process until f completes. If f is already complete it
// returns immediately without advancing time.
func (p *Proc) Wait(f *Future) {
	if f.done {
		return
	}
	if f.waiters == nil {
		f.waiters = f.k.getWaiters()
	}
	f.waiters = append(f.waiters, p)
	p.block()
}

// Future is a one-shot completion signal that processes can Wait on and
// events can Watch.
type Future struct {
	k       *Kernel
	done    bool
	pooled  bool // from Kernel.GetFuture: recyclable once complete
	when    Cycle
	waiters []*Proc
	watches []func()
}

// NewFuture returns an incomplete future on kernel k.
func NewFuture(k *Kernel) *Future {
	return &Future{k: k}
}

// Complete marks the future done at the current cycle and wakes all
// waiters (in registration order, at the current cycle). Completing twice
// panics.
func (f *Future) Complete() {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.when = f.k.now
	for _, p := range f.waiters {
		f.k.wakeAfter(0, p)
	}
	f.k.putWaiters(f.waiters)
	f.waiters = nil
	for _, fn := range f.watches {
		f.k.After(0, fn)
	}
	f.watches = nil
}

// CompleteAt schedules the future to complete at absolute cycle t.
func (f *Future) CompleteAt(t Cycle) {
	f.k.completeAt(t, f)
}

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// When returns the cycle at which the future completed; valid only if
// Done.
func (f *Future) When() Cycle { return f.when }

// Watch registers fn to run (as an event) when the future completes. If
// the future is already complete, fn is scheduled immediately.
func (f *Future) Watch(fn func()) {
	if f.done {
		f.k.After(0, fn)
		return
	}
	f.watches = append(f.watches, fn)
}

// CompletedFuture returns an already-completed future, useful for
// zero-latency fast paths.
func CompletedFuture(k *Kernel) *Future {
	return &Future{k: k, done: true, when: k.now}
}

// WaitAll blocks the process until every future in fs is complete.
func (p *Proc) WaitAll(fs ...*Future) {
	for _, f := range fs {
		p.Wait(f)
	}
}
