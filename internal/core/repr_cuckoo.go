package core

import (
	"math/bits"
	"unsafe"
)

// cuckooContainer stores a heavy-hitter vertex's out-edges in a bucketized
// cuckoo hash table (4 slots per bucket, 2 candidate buckets per edge, a
// bounded eviction chain, doubling growth) — the upper tier of the
// adaptive representation. Where a sorted slice would shift hundreds of
// entries per insert, the table answers any lookup in at most two bucket
// fetches regardless of degree, and unlike the hashed edgeblock tree it
// grows no overflow generations.
//
// Slots hold the same 12-byte edgeEntry as the slice tier; which slots are
// live is kept apart, in a 4-bit occupancy mask per bucket, so a slot needs
// no flag (and no padding for one), clearing a table zeroes only the masks,
// and a free slot is found with one bit scan.
//
// Determinism: every decision (bucket choice, victim rotation, growth) is a
// pure function of the container state and the operation stream, and the
// rotating victim selector is part of that state. The two seqlock replicas
// replay the same stream and therefore hold the same live slots.

const (
	cuckooSlotsPerBucket = 4
	cuckooMaxKicks       = 64
)

type cuckooContainer struct {
	// seed is the host's HashSeed, which the bucket hashes mix in; the
	// adaptor passes the host to a lookup and the op's tally to a mutation.
	seed uint64
	// slots holds (bucketMask+1) * cuckooSlotsPerBucket slots; bucket b owns
	// slots[b*4 : b*4+4], and bit i of occ[b] is set while slot b*4+i is
	// live (a clear bit leaves the slot's contents meaningless).
	slots      []edgeEntry
	occ        []uint8
	bucketMask uint64
	n          uint32
	// kick rotates the victim slot chosen within a bucket during eviction.
	// It is container state, not randomness, to keep replicas identical.
	kick uint32
}

func newCuckooContainer(seed uint64, capacityHint int) *cuckooContainer {
	c := &cuckooContainer{seed: seed}
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
		c.occ = c.occ[:buckets]
		clear(c.occ)
	} else {
		c.slots = make([]edgeEntry, want)
		c.occ = make([]uint8, buckets)
	}
	c.bucketMask = uint64(buckets - 1)
	c.n = 0
	c.kick = 0
}

// buckets returns the two candidate buckets of dst (always distinct).
func (c *cuckooContainer) buckets(dst uint64) (uint64, uint64) {
	b1 := mix64(dst^c.seed) & c.bucketMask
	b2 := mix64(dst*0x9e3779b97f4a7c15+c.seed) & c.bucketMask
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

// live reports whether slot i holds an edge.
func (c *cuckooContainer) live(i int) bool {
	return c.occ[i/cuckooSlotsPerBucket]&(1<<(i%cuckooSlotsPerBucket)) != 0
}

// put stores e in slot i and marks the slot live.
func (c *cuckooContainer) put(i int, e edgeEntry) {
	c.slots[i] = e
	c.occ[i/cuckooSlotsPerBucket] |= 1 << (i % cuckooSlotsPerBucket)
}

// emptyIn returns the index of a free slot in bucket b, or -1.
func (c *cuckooContainer) emptyIn(b uint64) int {
	free := ^c.occ[b] & (1<<cuckooSlotsPerBucket - 1)
	if free == 0 {
		return -1
	}
	return int(b)*cuckooSlotsPerBucket + bits.TrailingZeros8(free)
}

// findSlot locates dst in either candidate bucket, returning its slot index
// (-1 when absent) and the slots inspected.
func (c *cuckooContainer) findSlot(dst uint64) (int, int) {
	b1, b2 := c.buckets(dst)
	probe := 0
	for _, b := range [2]uint64{b1, b2} {
		base, occ := int(b)*cuckooSlotsPerBucket, c.occ[b]
		for i := 0; i < cuckooSlotsPerBucket; i++ {
			probe++
			if occ&(1<<i) != 0 && c.slots[base+i].d() == dst {
				return base + i, probe
			}
		}
	}
	return -1, probe
}

func (c *cuckooContainer) find(gt *GraphTinker, dst uint64) (float32, int, bool) {
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

func (c *cuckooContainer) insert(t *opTally, dst uint64, w float32) (bool, int) {
	idx, probe := c.findSlot(dst)
	t.cells += uint64(probe)
	if idx >= 0 {
		c.slots[idx].weight = w
		return false, probe
	}
	probe += c.place(mkEntry(dst, w))
	c.n++
	return true, probe
}

// place settles a new slot, evicting residents along the bounded cuckoo
// chain and growing the table when the chain fails or the load factor
// crosses 15/16. Returns the slots inspected. The displaced element is
// carried across a growth: grow rehashes the table's current contents and
// the loop retries the floater in the larger table.
func (c *cuckooContainer) place(s edgeEntry) int {
	if (c.n+1)*16 > uint32(len(c.slots))*15 {
		c.grow()
	}
	probe := 0
	cur := s
	for {
		b1, b2 := c.buckets(cur.d())
		probe += cuckooSlotsPerBucket
		if i := c.emptyIn(b1); i >= 0 {
			c.put(i, cur)
			return probe
		}
		probe += cuckooSlotsPerBucket
		if i := c.emptyIn(b2); i >= 0 {
			c.put(i, cur)
			return probe
		}
		b := b1
		placed := false
		for kicks := 0; kicks < cuckooMaxKicks; kicks++ {
			vi := int(b)*cuckooSlotsPerBucket + int(c.kick)&(cuckooSlotsPerBucket-1)
			c.kick++
			cur, c.slots[vi] = c.slots[vi], cur
			b = c.altBucket(cur.d(), b)
			probe += cuckooSlotsPerBucket
			if i := c.emptyIn(b); i >= 0 {
				c.put(i, cur)
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
	old := *c
	buckets := (int(c.bucketMask) + 1) * 2
	for {
		c.slots = make([]edgeEntry, buckets*cuckooSlotsPerBucket)
		c.occ = make([]uint8, buckets)
		c.bucketMask = uint64(buckets - 1)
		c.kick = 0
		if c.rehash(&old) {
			return
		}
		buckets *= 2
	}
}

func (c *cuckooContainer) rehash(old *cuckooContainer) bool {
	for i := range old.slots {
		if old.live(i) && !c.tryPlace(old.slots[i]) {
			return false
		}
	}
	return true
}

// tryPlace is place without growth: it reports failure instead, so the
// rehash loop can restart cleanly at a larger size.
func (c *cuckooContainer) tryPlace(s edgeEntry) bool {
	cur := s
	b1, b2 := c.buckets(cur.d())
	if i := c.emptyIn(b1); i >= 0 {
		c.put(i, cur)
		return true
	}
	if i := c.emptyIn(b2); i >= 0 {
		c.put(i, cur)
		return true
	}
	b := b1
	for kicks := 0; kicks < cuckooMaxKicks; kicks++ {
		vi := int(b)*cuckooSlotsPerBucket + int(c.kick)&(cuckooSlotsPerBucket-1)
		c.kick++
		cur, c.slots[vi] = c.slots[vi], cur
		b = c.altBucket(cur.d(), b)
		if i := c.emptyIn(b); i >= 0 {
			c.put(i, cur)
			return true
		}
	}
	return false
}

func (c *cuckooContainer) delete(t *opTally, dst uint64) (bool, int) {
	idx, probe := c.findSlot(dst)
	t.cells += uint64(probe)
	if idx < 0 {
		return false, probe
	}
	c.occ[idx/cuckooSlotsPerBucket] &^= 1 << (idx % cuckooSlotsPerBucket)
	c.n--
	return true, probe
}

func (c *cuckooContainer) iterate(fn func(dst uint64, w float32) bool) bool {
	for b, occ := range c.occ {
		for ; occ != 0; occ &= occ - 1 {
			e := &c.slots[b*cuckooSlotsPerBucket+bits.TrailingZeros8(occ)]
			if !fn(e.d(), e.weight) {
				return false
			}
		}
	}
	return true
}

// clear empties the table, retaining the slot buffer for reuse.
func (c *cuckooContainer) clear() {
	clear(c.occ)
	c.n = 0
	c.kick = 0
}

// collectEntries hands every live entry to a migration target's bulk
// loader.
func (c *cuckooContainer) collectEntries(fn func(e edgeEntry)) {
	for b, occ := range c.occ {
		for ; occ != 0; occ &= occ - 1 {
			fn(c.slots[b*cuckooSlotsPerBucket+bits.TrailingZeros8(occ)])
		}
	}
}

// bulkAdd places an entry during migration.
func (c *cuckooContainer) bulkAdd(e edgeEntry) {
	c.place(e)
	c.n++
}

// occupied counts the live slots by their occupancy masks (CheckInvariants
// holds it equal to n).
func (c *cuckooContainer) occupied() uint32 {
	var n int
	for _, occ := range c.occ {
		n += bits.OnesCount8(occ)
	}
	return uint32(n)
}

// memoryBytes counts the table header (allocated apart from the adaptor),
// its slot buffer and its masks.
func (c *cuckooContainer) memoryBytes() uint64 {
	return uint64(unsafe.Sizeof(*c)) + uint64(cap(c.slots))*uint64(unsafe.Sizeof(edgeEntry{})) + uint64(cap(c.occ))
}
