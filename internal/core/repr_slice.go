package core

import (
	"cmp"
	"slices"
	"unsafe"
)

// sliceContainer stores a vertex's out-edges as a slice sorted by
// destination id — the lower tier of the adaptive representation. All but
// the heaviest vertices of a skewed stream stay in it: lookups are a binary
// search over contiguous entries, insertion shifts the entries above the
// new one, and there is no block, hash or tombstone overhead at all. The
// entry buffer is retained across promotions (entries[:0]), so a vertex
// flapping around the thresholds re-migrates without allocating. The
// slice is the whole per-format state: the adaptor passes in the host to a
// lookup and the op's tally (apply.go) to a mutation.

// sliceGrowDiv sets how far a full slice grows: by a 1/sliceGrowDiv share
// of its length (at least one entry), at every size, rounded up to the
// whole allocator size class the buffer lands in. append, which doubles a
// slice up to 512 entries, left slices about 70% full; a quarter keeps
// them near 90%.
// Every growth is a fresh buffer and a copy, so a smaller step buys fewer
// bytes with more update time; a quarter was the cheapest step of the
// sweep in DESIGN §3.
const sliceGrowDiv = 4

// sliceBuf returns an empty buffer for at least n entries whose capacity is
// the whole size class the allocator rounds n entries up to, so none of
// the allocation is slack Memory cannot see or an insert cannot use. The
// insert path and the bulk loader's pre-sizing buy their buffers here.
func sliceBuf(n int) []edgeEntry { return slices.Grow([]edgeEntry(nil), n) }

type sliceContainer struct {
	// entries is sorted by dst and holds live edges only — the slice
	// format always compacts, under either DeleteMode (tombstone decay is
	// a hashed-block phenomenon).
	entries []edgeEntry
}

// search returns the position of dst (found=true) or its insertion point,
// plus the number of comparisons made (the probe distance of this format).
// Hand-rolled so the hot paths stay closure- and allocation-free.
func (c *sliceContainer) search(dst uint64) (pos int, probe int, found bool) {
	lo, hi := 0, len(c.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probe++
		switch e := c.entries[mid].d(); {
		case e == dst:
			return mid, probe, true
		case e < dst:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, probe, false
}

func (c *sliceContainer) find(gt *GraphTinker, dst uint64) (float32, int, bool) {
	pos, probe, found := c.search(dst)
	gt.stats.cellsInspected.Add(uint64(probe))
	if !found {
		return 0, probe, false
	}
	return c.entries[pos].weight, probe, true
}

func (c *sliceContainer) insert(t *opTally, dst uint64, w float32) (bool, int) {
	pos, probe, found := c.search(dst)
	t.cells += uint64(probe)
	if found {
		c.entries[pos].weight = w
		return false, probe
	}
	// A full slice moves to a fresh buffer: the prefix first, then the
	// second append puts the suffix one slot up, so each entry is copied
	// once rather than copied and then shifted. A slice with room shifts
	// its suffix up in place. Neither append can outgrow the buffer.
	old := c.entries
	if n := len(old); n == cap(old) {
		c.entries = append(sliceBuf(n+max(n/sliceGrowDiv, 1)), old[:pos]...)
	}
	c.entries = append(c.entries[:pos+1], old[pos:]...)
	c.entries[pos] = mkEntry(dst, w)
	return true, probe
}

func (c *sliceContainer) delete(t *opTally, dst uint64) (bool, int) {
	pos, probe, found := c.search(dst)
	t.cells += uint64(probe)
	if !found {
		return false, probe
	}
	copy(c.entries[pos:], c.entries[pos+1:])
	c.entries = c.entries[:len(c.entries)-1]
	return true, probe
}

func (c *sliceContainer) iterate(fn func(dst uint64, w float32) bool) bool {
	for i := range c.entries {
		if e := &c.entries[i]; !fn(e.d(), e.weight) {
			return false
		}
	}
	return true
}

// clear empties the container, retaining the buffer for reuse.
func (c *sliceContainer) clear() { c.entries = c.entries[:0] }

// bulkAdd appends an entry during migration (no degree accounting).
// Entries arrive unsorted; the caller sorts once with sortEntries.
func (c *sliceContainer) bulkAdd(e edgeEntry) {
	c.entries = append(c.entries, e)
}

// sortEntries restores dst order after a demotion, which hands over up to
// CuckooDemoteDegree entries in hash order. The comparator captures
// nothing, so the sort does not allocate.
func (c *sliceContainer) sortEntries() {
	slices.SortFunc(c.entries, func(a, b edgeEntry) int { return cmp.Compare(a.d(), b.d()) })
}

func (c *sliceContainer) memoryBytes() uint64 {
	return uint64(cap(c.entries)) * uint64(unsafe.Sizeof(edgeEntry{}))
}
