package analytic

// flatTable is a minimal open-addressed uint64 -> int32 map tuned for the
// stack-distance hot loop: power-of-two capacity, linear probing, and
// tombstone-free deletion by full reset at compaction time (the only
// point keys are ever removed). Each entry is one 16-byte record, so a
// probe touches a single cache line. The table is never iterated except
// to rehash on growth, so its layout cannot reach any output.
type flatTable struct {
	e []flatEntry
	n int
}

type flatEntry struct {
	key  uint64
	val  int32
	used bool
}

const flatMinCap = 1 << 11

func (t *flatTable) init(capHint int) {
	n := flatMinCap
	for n < capHint*2 {
		n *= 2
	}
	t.e = make([]flatEntry, n)
	t.n = 0
}

// reset clears the table, reallocating only when the capacity hint needs
// more room than the current array provides.
func (t *flatTable) reset(capHint int) {
	if t.e == nil || len(t.e) < capHint*2 {
		t.init(capHint)
		return
	}
	clear(t.e)
	t.n = 0
}

func hashKey(k uint64) uint64 {
	// splitmix64 finalizer: strong enough for line/page addresses.
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// home is key's first probe position. The low three key bits survive
// the hash, so eight consecutive keys (a streamed array's neighbouring
// lines) land in eight adjacent entries — two cache lines — instead of
// eight scattered ones.
func (t *flatTable) home(key uint64) (i, mask uint64) {
	mask = uint64(len(t.e) - 1)
	return (hashKey(key>>3)<<3 | key&7) & mask, mask
}

func (t *flatTable) get(key uint64) (int32, bool) {
	if t.e == nil {
		return 0, false
	}
	for i, mask := t.home(key); t.e[i].used; i = (i + 1) & mask {
		if t.e[i].key == key {
			return t.e[i].val, true
		}
	}
	return 0, false
}

// upsert stores key -> val in a single probe chain and returns the
// previous value, if any — the stack-distance hot loop's get+put pair
// collapsed into one table walk.
func (t *flatTable) upsert(key uint64, val int32) (old int32, existed bool) {
	if t.e == nil {
		t.init(flatMinCap / 2)
	}
	if (t.n+1)*4 >= len(t.e)*3 { // grow at 75% load
		t.grow()
	}
	i, mask := t.home(key)
	for ; t.e[i].used; i = (i + 1) & mask {
		if t.e[i].key == key {
			old = t.e[i].val
			t.e[i].val = val
			return old, true
		}
	}
	t.e[i] = flatEntry{key: key, val: val, used: true}
	t.n++
	return 0, false
}

func (t *flatTable) grow() {
	old := t.e
	t.e = make([]flatEntry, len(old)*2)
	t.n = 0
	for _, e := range old {
		if e.used {
			t.upsert(e.key, e.val)
		}
	}
}
