package analytic

import (
	"fmt"

	"tako/internal/mem"
)

// Sample is the raw reuse-distance observation for one access, exposed
// so property tests can pin the collector against BruteStack and so the
// Model can turn distances into per-level hit probabilities.
type Sample struct {
	Tile int
	Line mem.Addr // line address (byte address >> LineShift)

	// GlobalDist is the LRU stack distance within the merged unfiltered
	// all-tile stream (the shared L3's warm-state seeding order),
	// PageDist within the tile's page-granular stream (models the
	// per-tile dTLB).
	GlobalDist int
	GlobalCold bool
	PageDist   int
	PageCold   bool

	// Filtered-stream observations: the simulator's L2 only observes
	// accesses that missed L1, and the shared L3 only accesses that
	// missed both private levels, so their reuse distances must be
	// measured in those filtered streams. ReachL2/ReachL3 report
	// whether this access reached the level (decided by exact
	// functional LRU content of the level above); the distances are
	// stack distances within that level's own filtered stream.
	ReachL2 bool
	L2Dist  int
	L2Cold  bool
	ReachL3 bool
	L3Dist  int
	L3Cold  bool

	Write bool
}

// Collector ingests the workload's access stream — with no event kernel
// in the loop — and maintains exact LRU stack distances in the streams
// the hierarchy's miss behaviour depends on: each tile's L1-miss stream,
// the merged private-miss stream, the merged unfiltered stream and each
// tile's page stream.
//
// Phantom-region addresses are tracked like any others: the hierarchy
// caches phantom lines normally (only their backing data is synthetic),
// so their reuse distances displace real lines exactly as in simulation.
type Collector struct {
	tiles    int
	pageBits uint

	tilePage []*Stack
	global   *Stack

	// Level filters: exact functional L1/L2 content per tile gates
	// which accesses feed the filtered L2/L3 stacks.
	filterL1 []*exactCache
	filterL2 []*exactCache
	tileL2   []*Stack // per-tile L1-miss-filtered stream
	globalL3 *Stack   // merged private-miss-filtered stream

	Accesses uint64
	Writes   uint64
}

// NewCollector builds a collector for a machine with the given tile
// count, TLB page size and private L1/L2 geometry (the level filters).
func NewCollector(tiles int, pageBits uint, l1, l2 Geom) *Collector {
	c := &Collector{
		tiles:    tiles,
		pageBits: pageBits,
		tilePage: make([]*Stack, tiles),
		// The merged streams bound the shared-L3 model: keep far above
		// the aggregate L3 capacity (16 tiles x 512 KB = 128K lines).
		global:   NewStack(1 << 21),
		filterL1: make([]*exactCache, tiles),
		filterL2: make([]*exactCache, tiles),
		tileL2:   make([]*Stack, tiles),
		globalL3: NewStack(1 << 21),
	}
	for i := 0; i < tiles; i++ {
		c.tilePage[i] = NewStack(1 << 12)
		c.filterL1[i] = newExactCache(l1)
		c.filterL2[i] = newExactCache(l2)
		// Private stream bound: far above L1+L2 capacity (2.5K lines).
		c.tileL2[i] = NewStack(1 << 15)
	}
	return c
}

// Touch records one access from tile to byte address a and returns the
// raw distances observed.
func (c *Collector) Touch(tile int, a mem.Addr, write bool) Sample {
	la := a >> mem.LineShift
	s := Sample{Tile: tile, Line: la, Write: write}
	s.GlobalDist, s.GlobalCold = c.global.Touch(uint64(la))
	s.PageDist, s.PageCold = c.tilePage[tile].Touch(uint64(a) >> c.pageBits)
	if hit, _, _ := c.filterL1[tile].access(uint64(la)); !hit {
		s.ReachL2 = true
		s.L2Dist, s.L2Cold = c.tileL2[tile].Touch(uint64(la))
		if l2hit, victim, evicted := c.filterL2[tile].access(uint64(la)); !l2hit {
			s.ReachL3 = true
			s.L3Dist, s.L3Cold = c.globalL3.Touch(uint64(la))
			if evicted {
				// Inclusive hierarchy: an L2 eviction back-invalidates
				// the tile's L1 copy, so the victim must leave the L1
				// filter too. Without this the model never sees the
				// L1-resident-but-L2-evicted lines that re-fetch
				// through (and hit) the shared level.
				c.filterL1[tile].invalidate(victim)
			}
		}
	}
	c.Accesses++
	if write {
		c.Writes++
	}
	return s
}

// FilterMRU returns the exact content of tile's L1/L2 filters: resident
// line addresses set-major, each set's lines most recent first. This is
// the private levels' exact steady-state occupancy (including inclusion
// back-invalidations), which warm-state seeding installs.
func (c *Collector) FilterMRU(tile int) (l1, l2 []uint64) {
	return c.filterL1[tile].content(), c.filterL2[tile].content()
}

// GlobalMRU returns up to n line addresses most recently touched by any
// tile, most recent first.
func (c *Collector) GlobalMRU(n int) []uint64 { return c.global.MRU(n) }

// PageMRU returns up to n page numbers most recently touched by tile.
func (c *Collector) PageMRU(tile, n int) []uint64 { return c.tilePage[tile].MRU(n) }

// String summarizes the collector for diagnostics.
func (c *Collector) String() string {
	return fmt.Sprintf("analytic.Collector{tiles:%d accesses:%d writes:%d live:%d}",
		c.tiles, c.Accesses, c.Writes, c.global.Live())
}
