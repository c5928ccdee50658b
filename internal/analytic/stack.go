// Package analytic is the stack-distance-based analytical cache model
// behind fast-forward warmup (system.Config.FastForward): an exact LRU
// reuse-distance collector fed straight from the workload access stream
// (no event kernel), per-address-range reuse-distance histograms, and a
// miss-ratio/latency estimator for the Table 3 hierarchy derived from
// them. The approach follows Gysi et al., "A Fast Analytical Model of
// Fully Associative Caches" (PAPERS.md): reuse distances are orders of
// magnitude cheaper to collect than event-driven simulation and capture
// exactly the locality signal the hierarchy's miss behaviour depends on.
package analytic

import "math/bits"

// Stack computes exact LRU stack distances (the number of distinct keys
// touched since a key's previous touch) in O(log n) per access: keys map
// to monotonically increasing slots, a liveness bitmap marks each key's
// newest slot, a Fenwick tree over the bitmap's 64-slot words counts live
// slots per range, and a compaction pass recycles the slot space —
// preserving recency order exactly — whenever it fills. The word tree is
// 64× smaller than a per-slot one, so its upper levels stay cache
// resident and a touch costs about one cold line in the bitmap.
//
// Capacity is bounded: at compaction, only the keepMax most recently
// touched keys survive; older keys are dropped (counted in Dropped) and
// report cold on their next touch. keepMax is chosen far above every
// modeled cache capacity, so bounding never perturbs a finite estimate —
// a key older than keepMax distinct lines would miss everywhere anyway.
type Stack struct {
	keys []uint64  // slot -> key (stale where the slot's bit is clear)
	bits []uint64  // liveness bitmap: bit i set iff slot i is its key's newest slot
	tree []uint32  // Fenwick tree over the bitmap words' popcounts (1-based)
	pos  flatTable // key -> newest slot
	next int       // next free slot (logical length)
	live int       // keys currently tracked (= set bits)
	keep int       // survivors per compaction (drop-tail bound)

	// Cold counts first touches (including re-touches of dropped keys);
	// Dropped counts keys discarded by the bound.
	Cold    uint64
	Dropped uint64
}

// NewStack returns a stack-distance tracker keeping at most keepMax keys
// (≤ 0 selects a default of 1<<21, ≈128 MB of line-granular working set).
// The slot space grows to under 8× keepMax and slots are stored as
// int32, so keepMax must stay below 1<<28.
func NewStack(keepMax int) *Stack {
	if keepMax <= 0 {
		keepMax = 1 << 21
	}
	if keepMax >= 1<<28 {
		panic("analytic: NewStack keepMax exceeds the int32 slot space")
	}
	s := &Stack{keep: keepMax}
	s.resize(1<<10, 0)
	return s
}

// resize sizes the slot space to n slots (a multiple of 64) holding the m
// keys in keys[:m] as live slots 0..m-1, oldest first. The arrays are
// reused when n is unchanged, so steady-state compaction allocates
// nothing.
func (s *Stack) resize(n, m int) {
	if len(s.keys) != n {
		keys := make([]uint64, n)
		copy(keys, s.keys[:m])
		s.keys = keys
		s.bits = make([]uint64, n/64)
		s.tree = make([]uint32, n/64+1)
	} else {
		clear(s.bits)
		clear(s.tree)
	}
	for w := 0; w < m/64; w++ {
		s.bits[w] = ^uint64(0)
	}
	if r := m % 64; r != 0 {
		s.bits[m/64] = 1<<r - 1
	}
	// Linear-time Fenwick build: each node passes its total to its parent.
	for j := 1; j < len(s.tree); j++ {
		s.tree[j] += uint32(bits.OnesCount64(s.bits[j-1]))
		if p := j + j&-j; p < len(s.tree) {
			s.tree[p] += s.tree[j]
		}
	}
	s.next = m
	s.live = m
}

// addWord adds one to word w's count in the Fenwick tree.
func (s *Stack) addWord(w int) {
	for w++; w < len(s.tree); w += w & -w {
		s.tree[w]++
	}
}

// moveWord shifts one live count from word from to a later word to. The
// two Fenwick update paths are walked together, lowest index first, and
// stop where they merge: above that node the -1 and +1 cancel.
func (s *Stack) moveWord(from, to int) {
	i, j, n := from+1, to+1, len(s.tree)
	for i != j {
		if i < j {
			if i >= n {
				return
			}
			s.tree[i]--
			i += i & -i
		} else {
			if j >= n {
				return
			}
			s.tree[j]++
			j += j & -j
		}
	}
}

// sum returns the count of live slots in [0, i].
func (s *Stack) sum(i int) int {
	w := i >> 6
	n := bits.OnesCount64(s.bits[w] & (uint64(2)<<(i&63) - 1))
	for ; w > 0; w -= w & -w {
		n += int(s.tree[w])
	}
	return n
}

// Touch records an access to key and returns its LRU stack distance: the
// number of distinct keys touched since key's previous touch. cold is
// true on a first touch (or a re-touch after the key was dropped by the
// bound), in which case dist is meaningless.
func (s *Stack) Touch(key uint64) (dist int, cold bool) {
	if s.next > 0 && s.keys[s.next-1] == key {
		// Immediate re-touch of the MRU key: distance 0, recency order
		// unchanged — skip the table and bitmap work entirely.
		return 0, false
	}
	if s.next == len(s.keys) {
		s.compact()
	}
	nw := s.next >> 6
	if old, ok := s.pos.upsert(key, int32(s.next)); ok {
		// Keys more recent than this one = live keys in slots above it.
		slot := int(old)
		dist = s.live - s.sum(slot)
		ow := slot >> 6
		s.bits[ow] &^= 1 << (slot & 63)
		if ow != nw {
			s.moveWord(ow, nw)
		}
	} else {
		cold = true
		s.Cold++
		s.live++
		s.addWord(nw)
	}
	s.bits[nw] |= 1 << (s.next & 63)
	s.keys[s.next] = key
	s.next++
	return dist, cold
}

// Live returns the number of keys currently tracked.
func (s *Stack) Live() int { return s.live }

// compact rebuilds the slot space: surviving keys are renumbered 0..n-1
// in recency order (so every subsequent distance is unchanged), the
// least-recent keys beyond the keep bound are dropped, and the slot
// space grows geometrically until it amortizes compaction cost against
// the keep bound. No sorting and no table probes to find survivors: the
// bitmap's set bits enumerate the live slots in recency order, and the
// keys move down in place.
func (s *Stack) compact() {
	skip := s.live - s.keep
	if skip > 0 {
		s.Dropped += uint64(skip)
	}
	m := 0
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			if skip > 0 {
				skip--
				continue
			}
			s.keys[m] = s.keys[w<<6|bits.TrailingZeros64(word)]
			m++
		}
	}
	n := len(s.keys)
	// Keep at least 7/8 of the slot space free (capped at 4x the keep
	// bound) so compactions stay rare: each one walks the whole slot
	// space, so at 1/8 occupancy the amortized cost is ~1.3 slot visits
	// per touch.
	for n < 2*m+2 || (n < 4*s.keep && n < 8*m) {
		n *= 2
	}
	s.resize(n, m)
	s.pos.reset(m)
	for i, k := range s.keys[:m] {
		s.pos.upsert(k, int32(i))
	}
}

// MRU returns up to n tracked keys, most recently touched first. Used by
// warm-state seeding to plan steady-state cache occupancy.
func (s *Stack) MRU(n int) []uint64 {
	if n > s.live {
		n = s.live
	}
	out := make([]uint64, 0, n)
	for w := len(s.bits) - 1; w >= 0 && len(out) < n; w-- {
		for word := s.bits[w]; word != 0 && len(out) < n; {
			b := 63 - bits.LeadingZeros64(word)
			out = append(out, s.keys[w<<6|b])
			word &^= 1 << b
		}
	}
	return out
}
