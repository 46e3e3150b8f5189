package core

import (
	"fmt"
	"math"
	"unsafe"
)

// calArray is the Coarse Adjacency List EdgeblockArray (Sec. III.B): a
// second, highly compacted copy of every edge, kept up to date in real time
// so full-processing analytics can stream edges contiguously without any
// preprocessing pass.
//
// Dense source ids are partitioned into groups of groupSize consecutive ids;
// each group owns a chain of CAL blocks whose slots are filled strictly in
// arrival order, so edges of many vertices pack into the same block. A CAL
// entry is 16 B: the destination, the weight and the dense source id (edges
// in a block belong to different vertices of the group). The edge's
// container keeps the entry's calPtr, so an update or delete patches the
// copy in O(1). When delete-and-compact moves an entry, the entry's dense
// id and destination name its container, which re-points itself through
// its own lookup (repointCAL) — the mirror holds no address into any
// container, which is what lets every container format move its entries
// freely.
type calEntry struct {
	dst    uint64 // raw destination vertex id
	src    uint32 // dense source id; calTombstone marks a delete-only tombstone
	weight float32
}

// calTombstone is the src of a CAL entry invalidated by the delete-only
// path. No dense id reaches it: the arrays indexed by dense id would need
// 2^32 entries first.
const calTombstone = math.MaxUint32

type calArray struct {
	groupSize int
	blockSize int

	// chunks hold blocksPerChunk CAL blocks each; block b lives in
	// chunks[b/blocksPerChunk] at offset (b%blocksPerChunk)*blockSize, so
	// the flat slot index p lives at chunks[p/entriesPerChunk]
	// [p%entriesPerChunk]. Chunked slabs keep growth copy-free.
	chunks          [][]calEntry
	blocksPerChunk  int
	entriesPerChunk int
	// maxBlocks bounds numBlocks so every slot index fits a calPtr below
	// invalidCALPtr (and every block index an int32).
	maxBlocks int
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
	c.maxBlocks = int(min(math.MaxInt32, uint64(invalidCALPtr)/uint64(blockSize)))
	return c
}

func (c *calArray) groupOf(dense uint32) int { return int(dense) / c.groupSize }

func (c *calArray) ptr(b, slot int32) calPtr {
	return calPtr(uint32(b)*uint32(c.blockSize) + uint32(slot))
}

func (c *calArray) blockOf(p calPtr) int32 { return int32(uint32(p) / uint32(c.blockSize)) }

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
	if c.numBlocks >= c.maxBlocks {
		// Delete-only tombstones are never reused, so churn alone can get
		// here, not only live edges.
		panic(fmt.Sprintf("core: CAL mirror full: %d blocks of %d slots exhaust the 32-bit CAL pointer "+
			"(delete-only tombstones are never reclaimed; Rebuilt compacts them)", c.numBlocks, c.blockSize))
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
	return &c.chunks[int(p)/c.entriesPerChunk][int(p)%c.entriesPerChunk]
}

// append inserts a copy of the edge at the last unoccupied slot of the last
// assigned block of the source's group, growing the chain when the tail
// block is full, and returns the CAL pointer the container must remember.
func (c *calArray) append(dense uint32, dst uint64, w float32) calPtr {
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
	c.blockEntries(tail)[slot] = calEntry{dst: dst, src: dense, weight: w}
	return c.ptr(tail, slot)
}

// invalidate implements the delete-only path: the copy is tombstoned and
// the slot is never reused, mirroring the tombstone left in the
// EdgeblockArray.
func (c *calArray) invalidate(p calPtr) {
	e := c.entryAt(p)
	if e.src != calTombstone {
		e.src = calTombstone
		c.live[c.blockOf(p)]--
		c.liveEdges--
	}
}

func (c *calArray) patchWeight(p calPtr, w float32) {
	c.entryAt(p).weight = w
}

// removeCompact implements the delete-and-compact path for the CAL mirror:
// the hole left by the deleted entry at p is filled with the last entry of
// the same group's tail block, keeping every chain dense, and the tail
// block is freed when it empties. When an entry moved it is returned with
// ok set: its dense id and destination name the container whose pointer
// must now become p.
func (c *calArray) removeCompact(p calPtr, dense uint32) (moved calEntry, ok bool) {
	g := c.groupOf(dense)
	tail := c.groupTail[g]
	lastSlot := c.used[tail] - 1
	if lastPtr := c.ptr(tail, lastSlot); lastPtr != p {
		moved = *c.entryAt(lastPtr)
		*c.entryAt(p) = moved
		ok = true
	}
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
	return moved, ok
}

// forEach streams every live edge copy group by group, block by block —
// the contiguous access pattern full-processing mode relies on. toRaw maps
// a dense source id back to its raw id (the SGH table; nil when dense and
// raw ids coincide). A group spans groupSize consecutive dense ids, so the
// lookups of one block stay within a few cache lines of toRaw. The
// callback returns false to stop early.
func (c *calArray) forEach(toRaw []uint64, fn func(src, dst uint64, w float32) bool) {
	for g := range c.groupHead {
		for b := c.groupHead[g]; b != noBlock; b = c.next[b] {
			ents := c.blockEntries(b)[:c.used[b]]
			for i := range ents {
				e := &ents[i]
				if e.src == calTombstone {
					continue
				}
				src := uint64(e.src)
				if toRaw != nil {
					src = toRaw[e.src]
				}
				if !fn(src, e.dst, e.weight) {
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
