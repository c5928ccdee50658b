package analytic

import (
	"fmt"
	"math/rand"
	"testing"

	"tako/internal/mem"
	"tako/internal/workloads"
)

// TestStackMatchesBrute pins the bitmap/word-tree stack against the
// literal recency-list reference on random traces across several
// universe sizes and skews, including universes straddling the
// bitmap's 64-slot words and one spanning many words, so partial-word
// popcounts, the first and last bitmap words and the compaction's word
// walk are all exercised.
func TestStackMatchesBrute(t *testing.T) {
	for _, tc := range []struct {
		name     string
		universe int
		accesses int
		skewed   bool
	}{
		{"tiny", 8, 5000, false},
		{"small", 100, 20000, false},
		{"medium", 1500, 40000, false},
		{"skewed", 800, 40000, true},
		{"63", 63, 30000, false},
		{"64", 64, 30000, false},
		{"65", 65, 30000, false},
		{"127", 127, 30000, false},
		{"128", 128, 30000, false},
		{"4097", 4097, 30000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.universe)))
			keys := make([]uint64, tc.accesses)
			for i := range keys {
				if tc.skewed {
					// Zipf-ish: square the draw to concentrate on low keys.
					u := rng.Float64()
					keys[i] = uint64(float64(tc.universe) * u * u)
				} else {
					keys[i] = uint64(rng.Intn(tc.universe))
				}
			}
			if fast, _ := checkStackAgainstBrute(t, tc.universe+1, keys); fast.Dropped != 0 {
				t.Fatalf("dropped %d keys despite live < keep", fast.Dropped)
			}
		})
	}
}

// TestStackCompactionExact forces many slot-space compactions (the
// initial slot space holds 1K slots) and checks distances stay exact
// when the live set fits the keep bound.
func TestStackCompactionExact(t *testing.T) {
	const universe = 3000
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 150000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(universe))
	}
	// live == keep at steady state: compacts, never drops.
	if fast, _ := checkStackAgainstBrute(t, universe, keys); fast.Dropped != 0 {
		t.Fatalf("dropped %d keys despite live <= keep", fast.Dropped)
	}
}

// TestStackDropTail checks the bounded stack's contract under pressure
// (checkStackAgainstBrute) at keep bounds at and around one bitmap
// word, so compactions that drop keys split the survivors mid-word.
func TestStackDropTail(t *testing.T) {
	const universe = 1000
	for _, keep := range []int{63, 64, 65} {
		t.Run(fmt.Sprint(keep), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			keys := make([]uint64, 60000)
			for i := range keys {
				keys[i] = uint64(rng.Intn(universe))
			}
			fast, spurious := checkStackAgainstBrute(t, keep, keys)
			if fast.Dropped == 0 || spurious == 0 {
				t.Fatalf("expected drop pressure (dropped=%d spurious=%d)", fast.Dropped, spurious)
			}
		})
	}
}

// TestStackConsecutiveKeys streams consecutive keys from 0 — the
// pattern the hash's preserved low bits cluster in the table — and
// revisits them at random, so the key table grows mid-run and
// compactions rebuild it full of clustered keys.
func TestStackConsecutiveKeys(t *testing.T) {
	const universe = 5000
	rng := rand.New(rand.NewSource(5))
	var keys []uint64
	for pass := 0; pass < 3; pass++ {
		for k := 0; k < universe; k++ {
			keys = append(keys, uint64(k))
			if k%3 == 0 {
				keys = append(keys, uint64(rng.Intn(k+1)))
			}
		}
	}
	fast, _ := checkStackAgainstBrute(t, universe, keys)
	if fast.Live() != universe || fast.Dropped != 0 {
		t.Fatalf("live %d dropped %d, want %d and 0", fast.Live(), fast.Dropped, universe)
	}
}

// checkStackAgainstBrute drives a Stack with keep bound keep and a
// BruteStack through the same keys. Non-cold distances must match
// exactly, and a spuriously cold re-touch (one of the returned count)
// must be of a key whose true distance was at least keep, so any
// finite cache estimate is unperturbed. Every 4096 accesses and at the
// end the stack's MRU order must equal the reference's over the keep
// most recent keys, which the bound never drops, and every key the
// stack counted cold must be live or counted dropped.
func checkStackAgainstBrute(t *testing.T, keep int, keys []uint64) (fast *Stack, spurious int) {
	t.Helper()
	fast = NewStack(keep)
	brute := &BruteStack{}
	checkMRU := func(at int) {
		n := keep
		if n > brute.Live() {
			n = brute.Live()
		}
		fm, bm := fast.MRU(n), brute.MRU(n)
		if len(fm) != len(bm) {
			t.Fatalf("after %d accesses: MRU length %d != %d", at, len(fm), len(bm))
		}
		for i := range fm {
			if fm[i] != bm[i] {
				t.Fatalf("after %d accesses: MRU[%d] fast %d != brute %d", at, i, fm[i], bm[i])
			}
		}
	}
	for i, key := range keys {
		fd, fc := fast.Touch(key)
		bd, bc := brute.Touch(key)
		switch {
		case !fc && (bc || fd != bd):
			t.Fatalf("access %d key %d: fast (%d,%v) != brute (%d,%v)", i, key, fd, fc, bd, bc)
		case fc && !bc:
			spurious++
			if bd < keep {
				t.Fatalf("access %d key %d: dropped key re-touched at true distance %d < keep %d", i, key, bd, keep)
			}
		}
		if i%4096 == 4095 {
			checkMRU(i + 1)
		}
	}
	checkMRU(len(keys))
	if fast.Live() != int(fast.Cold-fast.Dropped) {
		t.Fatalf("live %d != cold %d - dropped %d", fast.Live(), fast.Cold, fast.Dropped)
	}
	if fast.Dropped == 0 && fast.Live() != brute.Live() {
		t.Fatalf("live: fast %d != brute %d with nothing dropped", fast.Live(), brute.Live())
	}
	return fast, spurious
}

// TestCollectorMatchesBrute pins the three collector granularities —
// per-tile line, global line, per-tile page — against brute references
// on a multi-tile interleaved trace that mixes real regions with a
// phantom range.
func TestCollectorMatchesBrute(t *testing.T) {
	const tiles = 4
	const pageBits = 12 // small pages so the page stream actually exercises reuse
	space := mem.NewSpace()
	real1 := space.Alloc("ranks", 1<<16)
	real2 := space.Alloc("edges", 1<<17)
	phantom := space.AllocPhantom("ubbuf", 1<<16)
	regions := []mem.Region{real1, real2, phantom}

	c := NewCollector(tiles, pageBits, space)
	bTileLine := make([]*BruteStack, tiles)
	bTilePage := make([]*BruteStack, tiles)
	bGlobal := &BruteStack{}
	for i := range bTileLine {
		bTileLine[i] = &BruteStack{}
		bTilePage[i] = &BruteStack{}
	}

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40000; i++ {
		tile := rng.Intn(tiles)
		r := regions[rng.Intn(len(regions))]
		a := r.At(uint64(rng.Intn(int(r.Size))) &^ 7)
		write := rng.Intn(4) == 0
		s := c.Touch(tile, a, write)

		la := uint64(a >> mem.LineShift)
		td, tc := bTileLine[tile].Touch(la)
		gd, gc := bGlobal.Touch(la)
		pd, pc := bTilePage[tile].Touch(uint64(a) >> pageBits)
		if s.TileDist != td || s.TileCold != tc {
			t.Fatalf("access %d: tile dist (%d,%v) != brute (%d,%v)", i, s.TileDist, s.TileCold, td, tc)
		}
		if s.GlobalDist != gd || s.GlobalCold != gc {
			t.Fatalf("access %d: global dist (%d,%v) != brute (%d,%v)", i, s.GlobalDist, s.GlobalCold, gd, gc)
		}
		if s.PageDist != pd || s.PageCold != pc {
			t.Fatalf("access %d: page dist (%d,%v) != brute (%d,%v)", i, s.PageDist, s.PageCold, pd, pc)
		}
	}

	// Range attribution: all three regions (including the phantom one)
	// must appear, and bucket totals must account for every access.
	names := map[string]uint64{}
	var total uint64
	for _, h := range c.Ranges() {
		names[h.Name] = h.Accesses
		total += h.Accesses
		var inBuckets uint64
		for _, b := range h.Buckets {
			inBuckets += b
		}
		if inBuckets+h.Cold != h.Accesses {
			t.Fatalf("range %q: buckets %d + cold %d != accesses %d", h.Name, inBuckets, h.Cold, h.Accesses)
		}
	}
	for _, want := range []string{"ranks", "edges", "ubbuf"} {
		if names[want] == 0 {
			t.Fatalf("range %q missing from histograms (got %v)", want, names)
		}
	}
	if total != c.Accesses {
		t.Fatalf("range totals %d != collector accesses %d", total, c.Accesses)
	}
}

// TestHitProb sanity-checks the set-associative hit-probability model.
func TestHitProb(t *testing.T) {
	fa := Geom{Sets: 1, Ways: 64}
	for d := 0; d < 64; d++ {
		if p := fa.HitProb(d, false); p != 1 {
			t.Fatalf("fully-assoc d=%d: got %v, want 1", d, p)
		}
	}
	if p := fa.HitProb(64, false); p != 0 {
		t.Fatalf("fully-assoc d=64: got %v, want 0", p)
	}
	sa := Geom{Sets: 64, Ways: 8}
	if p := sa.HitProb(3, true); p != 0 {
		t.Fatalf("cold: got %v, want 0", p)
	}
	if p := sa.HitProb(7, false); p != 1 {
		t.Fatalf("d<ways: got %v, want 1", p)
	}
	prev := 1.0
	for d := 8; d < 4096; d += 64 {
		p := sa.HitProb(d, false)
		if p < 0 || p > 1 {
			t.Fatalf("d=%d: p=%v out of range", d, p)
		}
		if p > prev+1e-12 {
			t.Fatalf("d=%d: p=%v not monotone (prev %v)", d, p, prev)
		}
		prev = p
	}
	// At capacity the set-associative hit probability should be well
	// below 1 but nonzero; far beyond capacity it should vanish.
	if p := sa.HitProb(sa.Lines(), false); p <= 0 || p >= 0.9 {
		t.Fatalf("at capacity: p=%v implausible", p)
	}
	if p := sa.HitProb(sa.Lines()*100, false); p != 0 {
		t.Fatalf("far beyond capacity: p=%v, want 0", p)
	}
}

// scatterStream replays fig25full's access stream (internal/exp) with
// no event kernel: the tiles take turns in 64-access batches (the
// fast-forward loop's kernel yield interval), and each walks its share
// of the vertices forever, loading the vertex's rank word, then for
// each of its edges the edge word and a scatter update of the
// destination's rank word, both from the closed-form
// workloads.EdgeStream.
type scatterStream struct {
	es           workloads.EdgeStream
	ranks, edges mem.Region
	tile         int // tile issuing the current batch
	left         int // accesses left in the current batch
	cur          []scatterCursor
}

type scatterCursor struct {
	lo, hi, src int
	i           uint64 // current edge index
	phase       int    // next access: 0 rank load, 1 edge load, 2 scatter
}

func newScatterStream(tiles, v, e int, space *mem.Space) *scatterStream {
	s := &scatterStream{
		es:    workloads.EdgeStream{V: v, E: e, Seed: 2002},
		ranks: space.Alloc("ranks", uint64(v)*8),
		edges: space.Alloc("edges", (uint64(e)*4+7)&^7),
		left:  64,
		cur:   make([]scatterCursor, tiles),
	}
	for t := range s.cur {
		lo := t * v / tiles
		s.cur[t] = scatterCursor{lo: lo, hi: (t + 1) * v / tiles, src: lo}
	}
	return s
}

// next returns the next access's tile, byte address and write flag.
// Every vertex needs an out-edge: e >= v.
func (s *scatterStream) next() (int, mem.Addr, bool) {
	if s.left == 0 {
		s.tile = (s.tile + 1) % len(s.cur)
		s.left = 64
	}
	s.left--
	c := &s.cur[s.tile]
	switch c.phase {
	case 0:
		c.phase, c.i = 1, s.es.Offset(c.src)
		return s.tile, s.ranks.At(uint64(c.src) * 8), false
	case 1:
		c.phase = 2
		return s.tile, s.edges.At(c.i * 4 &^ 7), false
	}
	a := s.ranks.At(s.es.Dst(c.i) * 8)
	c.phase = 1
	if c.i++; c.i == s.es.Offset(c.src+1) {
		c.phase = 0
		if c.src++; c.src == c.hi {
			c.src = c.lo
		}
	}
	return s.tile, a, true
}

// Table 3's private levels: 32 KB and 256 KB, 8-way, 64 B lines.
var (
	benchL1 = Geom{Sets: 64, Ways: 8}
	benchL2 = Geom{Sets: 512, Ways: 8}
)

// TestCollectorTouchSteadyStateAllocs gates the fast-forward hot loop's
// allocations: once every stack's slot space and key table have reached
// their final size, Collector.Touch with the filters armed — compactions
// included — allocates nothing.
func TestCollectorTouchSteadyStateAllocs(t *testing.T) {
	const tiles, v, e = 4, 4096, 8 * 4096
	space := mem.NewSpace()
	stream := newScatterStream(tiles, v, e, space)
	c := NewCollector(tiles, 12, space)
	c.SetFilters(benchL1, benchL2)
	const batch = 200000 // > 2 sweeps of the stream: every stack compacts
	touch := func() {
		for i := 0; i < batch; i++ {
			c.Touch(stream.next())
		}
	}
	for i := 0; i < 4; i++ {
		touch() // reach the final slot-space and table sizes
	}
	if got := testing.AllocsPerRun(1, touch); got != 0 {
		t.Fatalf("Collector.Touch allocated %v times in %d steady-state accesses, want 0", got, batch)
	}
}

// BenchmarkCollectorTouch's warmed collector and its stream, built on
// the first call: warming takes seconds, and the testing package calls
// a benchmark once per b.N it tries.
var (
	benchCollector *Collector
	benchStream    *scatterStream
)

// BenchmarkCollectorTouch prices one fast-forwarded access — global,
// page and filtered L2/L3 stack-distance collection plus the exact
// L1/L2 filters — on fig25full's quick-tier stream (16 tiles, 128K
// vertices, 2M edges) from a warmed collector. One op is one access.
func BenchmarkCollectorTouch(b *testing.B) {
	if benchCollector == nil {
		const tiles, v, e = 16, 128 * 1024, 2 * 1024 * 1024
		space := mem.NewSpace()
		benchStream = newScatterStream(tiles, v, e, space)
		benchCollector = NewCollector(tiles, 12, space)
		benchCollector.SetFilters(benchL1, benchL2)
		for i := 0; i < 2*(v+2*e); i++ { // two passes over the graph
			benchCollector.Touch(benchStream.next())
		}
	}
	c, stream := benchCollector, benchStream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(stream.next())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}
