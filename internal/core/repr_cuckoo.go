package core

import "unsafe"

// cuckooContainer stores a heavy-hitter vertex's out-edges in a bucketized
// cuckoo hash table (4 slots per bucket, 2 candidate buckets per edge, a
// bounded eviction chain, doubling growth) — the upper tier of the
// adaptive representation. Where a sorted slice would shift hundreds of
// entries per insert, the table answers any lookup in at most two bucket
// fetches regardless of degree, and unlike the hashed edgeblock tree it
// grows no overflow generations.
//
// Determinism: every decision (bucket choice, victim rotation, growth) is a
// pure function of the container state and the operation stream, and the
// rotating victim selector is part of that state. The two seqlock replicas
// replay the same stream and therefore hold bit-identical tables.

const (
	cuckooSlotsPerBucket = 4
	cuckooMaxKicks       = 64
)

type cuckooSlot struct {
	dst    uint64
	calPtr calPtr
	weight float32
	used   bool
}

type cuckooContainer struct {
	host *GraphTinker
	d    uint32
	// slots holds (bucketMask+1) * cuckooSlotsPerBucket slots; bucket b owns
	// slots[b*4 : b*4+4].
	slots      []cuckooSlot
	bucketMask uint64
	n          uint32
	// kick rotates the victim slot chosen within a bucket during eviction.
	// It is container state, not randomness, to keep replicas identical.
	kick uint32
}

var _ EdgeContainer = (*cuckooContainer)(nil)

func newCuckooContainer(gt *GraphTinker, d uint32, capacityHint int) *cuckooContainer {
	c := &cuckooContainer{host: gt, d: d}
	c.reset(capacityHint)
	return c
}

// reset sizes the table for capacityHint edges (load factor ≤ 3/4 at the
// hint) and clears it, reusing the retained slot buffer when a re-promotion
// fits in it — the allocation-free path for a vertex flapping around the
// cuckoo threshold.
func (c *cuckooContainer) reset(capacityHint int) {
	buckets := 2
	for buckets*cuckooSlotsPerBucket*3/4 < capacityHint {
		buckets <<= 1
	}
	want := buckets * cuckooSlotsPerBucket
	if cap(c.slots) >= want {
		c.slots = c.slots[:want]
		for i := range c.slots {
			c.slots[i] = cuckooSlot{}
		}
	} else {
		c.slots = make([]cuckooSlot, want)
	}
	c.bucketMask = uint64(buckets - 1)
	c.n = 0
	c.kick = 0
}

// buckets returns the two candidate buckets of dst (always distinct).
func (c *cuckooContainer) buckets(dst uint64) (uint64, uint64) {
	seed := c.host.cfg.HashSeed
	b1 := mix64(dst^seed) & c.bucketMask
	b2 := mix64(dst*0x9e3779b97f4a7c15+seed) & c.bucketMask
	if b2 == b1 {
		b2 = (b1 + 1) & c.bucketMask
	}
	return b1, b2
}

// altBucket maps a resident's current bucket to its other candidate.
func (c *cuckooContainer) altBucket(dst uint64, cur uint64) uint64 {
	b1, b2 := c.buckets(dst)
	if cur == b1 {
		return b2
	}
	return b1
}

// emptyIn returns the index of a free slot in bucket b, or -1.
func (c *cuckooContainer) emptyIn(b uint64) int {
	base := int(b) * cuckooSlotsPerBucket
	for i := 0; i < cuckooSlotsPerBucket; i++ {
		if !c.slots[base+i].used {
			return base + i
		}
	}
	return -1
}

// findSlot locates dst in either candidate bucket, returning its slot index
// (-1 when absent) and the slots inspected.
func (c *cuckooContainer) findSlot(dst uint64) (int, int) {
	b1, b2 := c.buckets(dst)
	probe := 0
	base := int(b1) * cuckooSlotsPerBucket
	for i := 0; i < cuckooSlotsPerBucket; i++ {
		probe++
		if s := &c.slots[base+i]; s.used && s.dst == dst {
			return base + i, probe
		}
	}
	base = int(b2) * cuckooSlotsPerBucket
	for i := 0; i < cuckooSlotsPerBucket; i++ {
		probe++
		if s := &c.slots[base+i]; s.used && s.dst == dst {
			return base + i, probe
		}
	}
	return -1, probe
}

func (c *cuckooContainer) Find(dst uint64) (float32, int, bool) {
	gt := c.host
	idx, probe := c.findSlot(dst)
	gt.stats.cellsInspected.Add(uint64(probe))
	// Each candidate bucket is one contiguous fetch (a bucket is exactly one
	// default-geometry workblock wide).
	gt.stats.workblocksRetrieved.Add(uint64((probe + cuckooSlotsPerBucket - 1) / cuckooSlotsPerBucket))
	if idx < 0 {
		return 0, probe, false
	}
	return c.slots[idx].weight, probe, true
}

func (c *cuckooContainer) Insert(dst uint64, w float32) (bool, int) {
	gt := c.host
	idx, probe := c.findSlot(dst)
	gt.stats.cellsInspected.Add(uint64(probe))
	if idx >= 0 {
		s := &c.slots[idx]
		s.weight = w
		if gt.cal != nil && s.calPtr.valid() {
			gt.cal.patchWeight(s.calPtr, w)
			gt.stats.calPatches.Add(1)
		}
		return false, probe
	}
	ptr := invalidCALPtr
	if gt.cal != nil {
		// Cuckoo entries move between buckets during evictions, so (like the
		// slice format) the mirror's owner back-pointer stays invalid and
		// consistency runs through the container's own lookup.
		ptr = gt.cal.append(c.d, gt.rawOf(c.d), dst, w, invalidCellAddr)
		gt.stats.calAppends.Add(1)
	}
	probe += c.place(cuckooSlot{dst: dst, calPtr: ptr, weight: w, used: true})
	c.n++
	return true, probe
}

// place settles a new slot, evicting residents along the bounded cuckoo
// chain and growing the table when the chain fails or the load factor
// crosses 15/16. Returns the slots inspected. The displaced element is
// carried across a growth: grow rehashes the table's current contents and
// the loop retries the floater in the larger table.
func (c *cuckooContainer) place(s cuckooSlot) int {
	if (c.n+1)*16 > uint32(len(c.slots))*15 {
		c.grow()
	}
	probe := 0
	cur := s
	for {
		b1, b2 := c.buckets(cur.dst)
		probe += cuckooSlotsPerBucket
		if i := c.emptyIn(b1); i >= 0 {
			c.slots[i] = cur
			return probe
		}
		probe += cuckooSlotsPerBucket
		if i := c.emptyIn(b2); i >= 0 {
			c.slots[i] = cur
			return probe
		}
		b := b1
		placed := false
		for kicks := 0; kicks < cuckooMaxKicks; kicks++ {
			vi := int(b)*cuckooSlotsPerBucket + int(c.kick)&(cuckooSlotsPerBucket-1)
			c.kick++
			cur, c.slots[vi] = c.slots[vi], cur
			b = c.altBucket(cur.dst, b)
			probe += cuckooSlotsPerBucket
			if i := c.emptyIn(b); i >= 0 {
				c.slots[i] = cur
				placed = true
				break
			}
		}
		if placed {
			return probe
		}
		c.grow()
	}
}

// grow doubles the bucket count and rehashes. When the rehash itself fails
// (pathological key set), the half-built table is discarded and the size is
// doubled again — the source snapshot stays untouched until a rehash
// completes.
func (c *cuckooContainer) grow() {
	old := c.slots
	buckets := (int(c.bucketMask) + 1) * 2
	for {
		c.slots = make([]cuckooSlot, buckets*cuckooSlotsPerBucket)
		c.bucketMask = uint64(buckets - 1)
		c.kick = 0
		if c.rehash(old) {
			return
		}
		buckets *= 2
	}
}

func (c *cuckooContainer) rehash(old []cuckooSlot) bool {
	for i := range old {
		if old[i].used && !c.tryPlace(old[i]) {
			return false
		}
	}
	return true
}

// tryPlace is place without growth: it reports failure instead, so the
// rehash loop can restart cleanly at a larger size.
func (c *cuckooContainer) tryPlace(s cuckooSlot) bool {
	cur := s
	b1, b2 := c.buckets(cur.dst)
	if i := c.emptyIn(b1); i >= 0 {
		c.slots[i] = cur
		return true
	}
	if i := c.emptyIn(b2); i >= 0 {
		c.slots[i] = cur
		return true
	}
	b := b1
	for kicks := 0; kicks < cuckooMaxKicks; kicks++ {
		vi := int(b)*cuckooSlotsPerBucket + int(c.kick)&(cuckooSlotsPerBucket-1)
		c.kick++
		cur, c.slots[vi] = c.slots[vi], cur
		b = c.altBucket(cur.dst, b)
		if i := c.emptyIn(b); i >= 0 {
			c.slots[i] = cur
			return true
		}
	}
	return false
}

func (c *cuckooContainer) Delete(dst uint64) (bool, int) {
	gt := c.host
	idx, probe := c.findSlot(dst)
	gt.stats.cellsInspected.Add(uint64(probe))
	if idx < 0 {
		return false, probe
	}
	ptr := c.slots[idx].calPtr
	c.slots[idx] = cuckooSlot{}
	c.n--
	gt.dropCALEntry(ptr, c.d)
	return true, probe
}

func (c *cuckooContainer) Degree() uint32 { return c.n }

func (c *cuckooContainer) Iterate(fn func(dst uint64, w float32) bool) bool {
	for i := range c.slots {
		if s := &c.slots[i]; s.used {
			if !fn(s.dst, s.weight) {
				return false
			}
		}
	}
	return true
}

func (c *cuckooContainer) Snapshot() []Edge {
	src := c.host.rawOf(c.d)
	out := make([]Edge, 0, c.n)
	c.Iterate(func(dst uint64, w float32) bool {
		out = append(out, Edge{Src: src, Dst: dst, Weight: w})
		return true
	})
	return out
}

func (c *cuckooContainer) calPtrOf(dst uint64) (calPtr, bool) {
	idx, _ := c.findSlot(dst)
	if idx < 0 {
		return invalidCALPtr, false
	}
	return c.slots[idx].calPtr, true
}

func (c *cuckooContainer) repointCAL(dst uint64, p calPtr) bool {
	idx, _ := c.findSlot(dst)
	if idx < 0 {
		return false
	}
	c.slots[idx].calPtr = p
	return true
}

// clear empties the table, retaining the slot buffer for reuse.
func (c *cuckooContainer) clear() {
	for i := range c.slots {
		c.slots[i] = cuckooSlot{}
	}
	c.n = 0
	c.kick = 0
}

// collectEntries hands every live (dst, weight, calPtr) to a migration
// target's bulk loader.
func (c *cuckooContainer) collectEntries(fn func(dst uint64, w float32, ptr calPtr)) {
	for i := range c.slots {
		if s := &c.slots[i]; s.used {
			fn(s.dst, s.weight, s.calPtr)
		}
	}
}

// bulkAdd places an edge during migration (the CAL mirror entry already
// exists).
func (c *cuckooContainer) bulkAdd(dst uint64, w float32, ptr calPtr) {
	c.place(cuckooSlot{dst: dst, calPtr: ptr, weight: w, used: true})
	c.n++
}

// memoryBytes counts the table header (allocated apart from the adaptor)
// and its slot buffer.
func (c *cuckooContainer) memoryBytes() uint64 {
	return uint64(unsafe.Sizeof(*c)) + uint64(cap(c.slots))*uint64(unsafe.Sizeof(cuckooSlot{}))
}
