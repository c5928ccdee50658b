package system

import (
	"strings"
	"testing"

	"tako/internal/cpu"
	"tako/internal/mem"
	"tako/internal/sim"
)

func TestSystemAssemblesAndRuns(t *testing.T) {
	s := New(Default(4))
	region := s.Alloc("data", 4096)
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		c.Store(p, region.Base, 5)
	})
	s.Go(1, "r", func(p *sim.Proc, c *cpu.Core) {
		p.Sleep(2000)
		if v := c.Load(p, region.Base); v != 5 {
			t.Errorf("cross-core read = %d", v)
		}
	})
	cycles := s.Run()
	if cycles == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if s.TotalInstrs() != 2 {
		t.Fatalf("instrs = %d", s.TotalInstrs())
	}
}

func TestNoTakoBaseline(t *testing.T) {
	cfg := Default(2)
	cfg.NoTako = true
	s := New(cfg)
	if s.Tako != nil || s.E != nil {
		t.Fatal("NoTako config built täkō components")
	}
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		c.Load(p, mem.Addr(0x1000))
	})
	s.Run()
	if s.EngineInstrs() != 0 {
		t.Fatal("engine instrs nonzero without engines")
	}
}

func TestScaledConfigRuns(t *testing.T) {
	s := New(Scaled(2, 16))
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		for i := 0; i < 100; i++ {
			c.Store(p, mem.Addr(0x1000+i*64), uint64(i))
		}
	})
	s.Run()
}

func TestSystemTraceHook(t *testing.T) {
	s := New(Default(2))
	tr := s.Trace(32, "cb.*")
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		c.Load(p, mem.Addr(0x2000))
	})
	s.Run()
	// Plain loads produce no callback events; the tracer is attached
	// and filtered.
	if tr.Total() != 0 {
		t.Fatalf("unexpected events: %d", tr.Total())
	}
}

// SetDefaultSharded survives only for callers of the removed sharded
// engine: arming it panics with a pointer to the removal record, and
// disarming it leaves New on the classic kernel.
func TestSetDefaultShardedRemoved(t *testing.T) {
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "sharded engine was removed") || !strings.Contains(msg, "docs/performance.md") {
				t.Errorf("SetDefaultSharded(true, 2) panic = %q, want the removal message", msg)
			}
		}()
		SetDefaultSharded(true, 2)
	}()
	SetDefaultSharded(false, 0)
	s := New(Default(2))
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) { c.Store(p, mem.Addr(0x1000), 1) })
	if cycles := s.Run(); s.K == nil || cycles == 0 || cycles != s.K.Now() || s.KernelEvents() != s.K.Events() {
		t.Fatalf("SetDefaultSharded(false, 0): run on kernel %p took %d cycles", s.K, cycles)
	}
}

// SetDefaultTilePar survives only for callers of the removed partitioned
// kernel: a width above one panics with a pointer to the removal record,
// and widths up to one leave New on the single-queue kernel.
func TestSetDefaultTileParRemoved(t *testing.T) {
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "partitioned kernel was removed") || !strings.Contains(msg, "docs/performance.md") {
				t.Errorf("SetDefaultTilePar(4) panic = %q, want the removal message", msg)
			}
		}()
		SetDefaultTilePar(4)
	}()
	SetDefaultTilePar(1)
	SetDefaultTilePar(0)
	s := New(Default(2))
	s.Go(1, "w", func(p *sim.Proc, c *cpu.Core) { c.Store(p, mem.Addr(0x1000), 1) })
	if cycles := s.Run(); cycles == 0 || s.KernelEvents() != s.K.Events() {
		t.Fatalf("SetDefaultTilePar(1): run took %d cycles", cycles)
	}
}
