package core

import "unsafe"

// calArray is the Coarse Adjacency List EdgeblockArray (Sec. III.B): a
// second, highly compacted copy of every edge, kept up to date in real time
// so full-processing analytics can stream edges contiguously without any
// preprocessing pass.
//
// Dense source ids are partitioned into groups of groupSize consecutive ids;
// each group owns a chain of CAL blocks whose slots are filled strictly in
// arrival order, so edges of many vertices pack into the same block. Every
// CAL entry carries its raw source id (edges in a block belong to different
// vertices of the group) and the address of its owning EdgeblockArray cell,
// so the two copies can patch each other in O(1) — no traversal is ever
// needed to keep the mirror consistent, which is why CAL maintenance adds
// only a small constant to update cost.
type calEntry struct {
	src    uint64 // raw source vertex id
	dst    uint64 // raw destination vertex id
	owner  cellAddr
	weight float32
	valid  bool
}

type calArray struct {
	groupSize int
	blockSize int

	// chunks hold blocksPerChunk CAL blocks each; block b lives in
	// chunks[b/blocksPerChunk] at offset (b%blocksPerChunk)*blockSize.
	// Chunked slabs keep growth copy-free.
	chunks          [][]calEntry
	blocksPerChunk  int
	entriesPerChunk int
	// used is the append cursor of each block; live counts valid entries.
	used []int32
	live []int32
	// next chains blocks of one group; groupHead/groupTail delimit chains.
	next      []int32
	groupHead []int32
	groupTail []int32

	numBlocks  int
	freeList   []int32
	liveEdges  uint64
	liveBlocks int
}

func newCALArray(groupSize, blockSize int) *calArray {
	c := &calArray{groupSize: groupSize, blockSize: blockSize}
	c.blocksPerChunk = 256
	c.entriesPerChunk = c.blocksPerChunk * blockSize
	return c
}

func (c *calArray) groupOf(dense uint32) int { return int(dense) / c.groupSize }

func (c *calArray) ensureGroup(g int) {
	for len(c.groupHead) <= g {
		c.groupHead = append(c.groupHead, noBlock)
		c.groupTail = append(c.groupTail, noBlock)
	}
}

func (c *calArray) allocBlock() int32 {
	if n := len(c.freeList); n > 0 {
		b := c.freeList[n-1]
		c.freeList = c.freeList[:n-1]
		c.used[b] = 0
		c.live[b] = 0
		c.next[b] = noBlock
		c.liveBlocks++
		return b
	}
	b := int32(c.numBlocks)
	c.numBlocks++
	if c.numBlocks > len(c.chunks)*c.blocksPerChunk {
		c.chunks = append(c.chunks, make([]calEntry, c.entriesPerChunk))
	}
	c.used = append(c.used, 0)
	c.live = append(c.live, 0)
	c.next = append(c.next, noBlock)
	c.liveBlocks++
	return b
}

func (c *calArray) blockEntries(b int32) []calEntry {
	off := (int(b) % c.blocksPerChunk) * c.blockSize
	return c.chunks[int(b)/c.blocksPerChunk][off : off+c.blockSize]
}

func (c *calArray) entryAt(p calPtr) *calEntry {
	return &c.blockEntries(p.block())[p.slot()]
}

// append inserts a copy of the edge at the last unoccupied slot of the last
// assigned block of the source's group, growing the chain when the tail
// block is full, and returns the CAL pointer the owning cell must remember.
func (c *calArray) append(dense uint32, rawSrc, dst uint64, w float32, owner cellAddr) calPtr {
	g := c.groupOf(dense)
	c.ensureGroup(g)
	tail := c.groupTail[g]
	if tail == noBlock || c.used[tail] == int32(c.blockSize) {
		b := c.allocBlock()
		if tail == noBlock {
			c.groupHead[g] = b
		} else {
			c.next[tail] = b
		}
		c.groupTail[g] = b
		tail = b
	}
	slot := c.used[tail]
	c.used[tail]++
	c.live[tail]++
	c.liveEdges++
	c.blockEntries(tail)[slot] = calEntry{
		src: rawSrc, dst: dst, weight: w, owner: owner, valid: true,
	}
	return makeCALPtr(tail, slot)
}

// invalidate implements the delete-only path: the copy is flagged invalid
// and the slot is never reused, mirroring the tombstone left in the
// EdgeblockArray.
func (c *calArray) invalidate(p calPtr) {
	e := c.entryAt(p)
	if e.valid {
		e.valid = false
		c.live[p.block()]--
		c.liveEdges--
	}
}

// setOwner re-points the back-reference after the owning EdgeblockArray cell
// moved (Robin-Hood swap or compaction pull-up).
func (c *calArray) setOwner(p calPtr, owner cellAddr) {
	c.entryAt(p).owner = owner
}

func (c *calArray) patchWeight(p calPtr, w float32) {
	c.entryAt(p).weight = w
}

// movedCAL identifies the entry that backfilled a CAL hole during
// delete-and-compact: the owner cell address when the moved edge lives in
// the block format (invalidCellAddr otherwise — slice and cuckoo entries
// carry no owner back-pointer), plus the raw endpoints so a container-owned
// entry can be re-pointed through its container's own lookup.
type movedCAL struct {
	owner    cellAddr
	src, dst uint64
	moved    bool
}

// removeCompact implements the delete-and-compact path for the CAL mirror:
// the hole left by the deleted entry is filled with the last entry of the
// same group's tail block, keeping every chain dense, and the tail block is
// freed when it empties. It returns the identity of the moved entry so the
// caller can re-point whatever references the old location at p (see
// GraphTinker.repointMovedCAL).
func (c *calArray) removeCompact(p calPtr, dense uint32) movedCAL {
	g := c.groupOf(dense)
	tail := c.groupTail[g]
	lastSlot := c.used[tail] - 1
	lastPtr := makeCALPtr(tail, lastSlot)

	var mv movedCAL
	if lastPtr != p {
		moved := *c.entryAt(lastPtr)
		*c.entryAt(p) = moved
		mv = movedCAL{owner: moved.owner, src: moved.src, dst: moved.dst, moved: true}
	}
	le := c.entryAt(lastPtr)
	le.valid = false
	c.used[tail] = lastSlot
	c.live[tail]--
	c.liveEdges--

	if c.used[tail] == 0 {
		// Unlink and free the emptied tail. Chains are singly linked, so
		// find the predecessor; group chains are short (edges/groupSize/
		// blockSize blocks) and deletes already pay a traversal in the
		// EdgeblockArray, so this walk is not the bottleneck.
		head := c.groupHead[g]
		if head == tail {
			c.groupHead[g] = noBlock
			c.groupTail[g] = noBlock
		} else {
			prev := head
			for c.next[prev] != tail {
				prev = c.next[prev]
			}
			c.next[prev] = noBlock
			c.groupTail[g] = prev
		}
		c.freeList = append(c.freeList, tail)
		c.liveBlocks--
	}
	return mv
}

// forEach streams every live edge copy group by group, block by block —
// the contiguous access pattern full-processing mode relies on. The
// callback returns false to stop early.
func (c *calArray) forEach(fn func(src, dst uint64, w float32) bool) {
	for g := range c.groupHead {
		for b := c.groupHead[g]; b != noBlock; b = c.next[b] {
			ents := c.blockEntries(b)[:c.used[b]]
			for i := range ents {
				e := &ents[i]
				if !e.valid {
					continue
				}
				if !fn(e.src, e.dst, e.weight) {
					return
				}
			}
		}
	}
}

// slotsAllocated is the total number of CAL slots ever handed out that are
// still reachable (used cursors summed), live or tombstoned. The ratio
// liveEdges/slotsAllocated measures CAL compactness.
func (c *calArray) slotsAllocated() uint64 {
	var n uint64
	for g := range c.groupHead {
		for b := c.groupHead[g]; b != noBlock; b = c.next[b] {
			n += uint64(c.used[b])
		}
	}
	return n
}

// memoryBytes is the resident footprint of the mirror: its entry chunks and
// the capacity of every metadata array.
func (c *calArray) memoryBytes() uint64 {
	return uint64(len(c.chunks))*uint64(c.entriesPerChunk)*uint64(unsafe.Sizeof(calEntry{})) +
		uint64(cap(c.chunks))*uint64(unsafe.Sizeof(c.chunks[:0])) +
		uint64(cap(c.used)+cap(c.live)+cap(c.next)+cap(c.groupHead)+cap(c.groupTail)+cap(c.freeList))*4
}
