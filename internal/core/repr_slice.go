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
// flapping around the thresholds re-migrates without allocating.

type sliceContainer struct {
	host *GraphTinker
	d    uint32
	// entries is sorted by dst and holds live edges only — the slice
	// format always compacts, under either DeleteMode (tombstone decay is
	// a hashed-block phenomenon; the CAL mirror still honours the mode).
	entries []edgeEntry
}

var _ EdgeContainer = (*sliceContainer)(nil)

// search returns the position of dst (found=true) or its insertion point,
// plus the number of comparisons made (the probe distance of this format).
// Hand-rolled so the hot paths stay closure- and allocation-free.
func (c *sliceContainer) search(dst uint64) (pos int, probe int, found bool) {
	lo, hi := 0, len(c.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probe++
		switch e := c.entries[mid].dst; {
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

func (c *sliceContainer) Find(dst uint64) (float32, int, bool) {
	pos, probe, found := c.search(dst)
	c.host.stats.cellsInspected.Add(uint64(probe))
	if !found {
		return 0, probe, false
	}
	return c.entries[pos].weight, probe, true
}

func (c *sliceContainer) Insert(dst uint64, w float32) (bool, int) {
	gt := c.host
	pos, probe, found := c.search(dst)
	gt.stats.cellsInspected.Add(uint64(probe))
	if found {
		e := &c.entries[pos]
		e.weight = w
		if gt.cal != nil && e.calPtr.valid() {
			gt.cal.patchWeight(e.calPtr, w)
			gt.stats.calPatches.Add(1)
		}
		return false, probe
	}
	ptr := invalidCALPtr
	if gt.cal != nil {
		ptr = gt.cal.append(c.d, dst, w)
		gt.stats.calAppends.Add(1)
	}
	c.entries = append(c.entries, edgeEntry{})
	copy(c.entries[pos+1:], c.entries[pos:])
	c.entries[pos] = edgeEntry{dst: dst, calPtr: ptr, weight: w}
	return true, probe
}

func (c *sliceContainer) Delete(dst uint64) (bool, int) {
	gt := c.host
	pos, probe, found := c.search(dst)
	gt.stats.cellsInspected.Add(uint64(probe))
	if !found {
		return false, probe
	}
	ptr := c.entries[pos].calPtr
	copy(c.entries[pos:], c.entries[pos+1:])
	c.entries = c.entries[:len(c.entries)-1]
	gt.dropCALEntry(ptr, c.d)
	return true, probe
}

func (c *sliceContainer) Degree() uint32 { return uint32(len(c.entries)) }

func (c *sliceContainer) Iterate(fn func(dst uint64, w float32) bool) bool {
	for i := range c.entries {
		if !fn(c.entries[i].dst, c.entries[i].weight) {
			return false
		}
	}
	return true
}

func (c *sliceContainer) Snapshot() []Edge {
	src := c.host.rawOf(c.d)
	out := make([]Edge, len(c.entries))
	for i, e := range c.entries {
		out[i] = Edge{Src: src, Dst: e.dst, Weight: e.weight}
	}
	return out
}

// calPtrOf reports the CAL pointer stored for dst (the invariant checker
// and CAL repoints resolve container-owned mirror entries through this).
func (c *sliceContainer) calPtrOf(dst uint64) (calPtr, bool) {
	pos, _, found := c.search(dst)
	if !found {
		return invalidCALPtr, false
	}
	return c.entries[pos].calPtr, true
}

// repointCAL updates the stored CAL pointer for dst after the mirror
// compacted the entry into a new slot.
func (c *sliceContainer) repointCAL(dst uint64, p calPtr) bool {
	pos, _, found := c.search(dst)
	if !found {
		return false
	}
	c.entries[pos].calPtr = p
	return true
}

// clear empties the container, retaining the buffer for reuse.
func (c *sliceContainer) clear() { c.entries = c.entries[:0] }

// bulkAdd appends an entry during migration: no CAL append (the mirror
// entry already exists), no degree accounting. Entries arrive unsorted;
// the caller sorts once with sortEntries.
func (c *sliceContainer) bulkAdd(e edgeEntry) {
	c.entries = append(c.entries, e)
}

// sortEntries restores dst order after a demotion, which hands over up to
// CuckooDemoteDegree entries in hash order. The comparator captures
// nothing, so the sort does not allocate.
func (c *sliceContainer) sortEntries() {
	slices.SortFunc(c.entries, func(a, b edgeEntry) int { return cmp.Compare(a.dst, b.dst) })
}

func (c *sliceContainer) memoryBytes() uint64 {
	return uint64(cap(c.entries)) * uint64(unsafe.Sizeof(edgeEntry{}))
}
