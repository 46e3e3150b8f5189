package core

import "unsafe"

// edgeblockArray is the backbone of GraphTinker (Sec. III.B): a growable
// array of edgeblocks, each PageWidth edge cells wide, backed by fixed-size
// slab chunks so cells of one edgeblock are contiguous in memory and arena
// growth never copies. The main region consists of top-parent edgeblocks
// (one per non-empty source vertex, reached through GraphTinker.topBlock);
// the overflow region consists of child edgeblocks created by Tree-Based
// Hashing when a subblock congests. Both regions share the same arena — a
// block's role is defined by how it is reached, not by where it lives.
type edgeblockArray struct {
	geo geometry

	// chunks hold blocksPerChunk edgeblocks each; block b lives in
	// chunks[b>>chunkShift] at offset (b&chunkMask)*PageWidth.
	chunks         [][]edgeCell
	blocksPerChunk int
	chunkShift     uint
	chunkMask      int
	cellsPerChunk  int

	// children holds, for block b and subblock s, the index of the child
	// edgeblock that subblock branched out into (-1 when it has not).
	children []int32
	// parent / parentSb record the subblock each overflow block descends
	// from, so delete-and-compact can unlink and free emptied blocks.
	parent   []int32
	parentSb []int32
	// occupancy counts occupied cells per block (tombstones excluded);
	// subOcc counts them per subblock, letting the insert path detect a
	// congested subblock without scanning it.
	occupancy []int32
	subOcc    []uint8

	numBlocks  int
	liveBlocks int
	freeList   []int32
}

const noBlock = int32(-1)

// defaultBlocksPerChunk sizes slab chunks; at the default PAGEWIDTH of 64
// one chunk is 1024 blocks = 64K cells (~2 MB).
const defaultBlocksPerChunk = 1024

func newEdgeblockArray(geo geometry, initialBlocks int) *edgeblockArray {
	eba := &edgeblockArray{
		geo:            geo,
		blocksPerChunk: defaultBlocksPerChunk,
	}
	eba.chunkMask = eba.blocksPerChunk - 1
	for 1<<eba.chunkShift < eba.blocksPerChunk {
		eba.chunkShift++
	}
	eba.cellsPerChunk = eba.blocksPerChunk * geo.pageWidth
	if initialBlocks > 0 {
		eba.children = make([]int32, 0, initialBlocks*geo.subblocksPerBlock)
		eba.parent = make([]int32, 0, initialBlocks)
		eba.parentSb = make([]int32, 0, initialBlocks)
		eba.occupancy = make([]int32, 0, initialBlocks)
		eba.subOcc = make([]uint8, 0, initialBlocks*geo.subblocksPerBlock)
	}
	return eba
}

// grow extends s by n zeroed elements without allocating a temporary,
// doubling capacity so metadata growth stays amortized O(1).
func grow[T any](s []T, n int) []T {
	if cap(s) >= len(s)+n {
		return s[: len(s)+n : cap(s)]
	}
	newCap := 2 * cap(s)
	if newCap < len(s)+n {
		newCap = len(s) + n
	}
	ns := make([]T, len(s)+n, newCap)
	copy(ns, s)
	return ns
}

// allocBlock returns a zeroed edgeblock, reusing a freed block if one is
// available. parent is noBlock for top-parent (main region) blocks.
func (eba *edgeblockArray) allocBlock(parent int32, parentSb int) int32 {
	var b int32
	if n := len(eba.freeList); n > 0 {
		b = eba.freeList[n-1]
		eba.freeList = eba.freeList[:n-1]
		cells := eba.blockCells(b)
		for i := range cells {
			cells[i] = edgeCell{}
		}
		kids := eba.blockChildren(b)
		for i := range kids {
			kids[i] = noBlock
		}
		eba.occupancy[b] = 0
		subs := eba.blockSubOcc(b)
		for i := range subs {
			subs[i] = 0
		}
	} else {
		b = int32(eba.numBlocks)
		eba.numBlocks++
		if eba.numBlocks > len(eba.chunks)*eba.blocksPerChunk {
			eba.chunks = append(eba.chunks, make([]edgeCell, eba.cellsPerChunk))
		}
		eba.children = grow(eba.children, eba.geo.subblocksPerBlock)
		for i := 0; i < eba.geo.subblocksPerBlock; i++ {
			eba.children[len(eba.children)-1-i] = noBlock
		}
		eba.subOcc = grow(eba.subOcc, eba.geo.subblocksPerBlock)
		eba.parent = append(eba.parent, noBlock)
		eba.parentSb = append(eba.parentSb, 0)
		eba.occupancy = append(eba.occupancy, 0)
	}
	eba.parent[b] = parent
	eba.parentSb[b] = int32(parentSb)
	eba.liveBlocks++
	return b
}

// freeBlock returns an (empty, childless) block to the free list and severs
// it from its parent subblock.
func (eba *edgeblockArray) freeBlock(b int32) {
	if p := eba.parent[b]; p != noBlock {
		eba.children[int(p)*eba.geo.subblocksPerBlock+int(eba.parentSb[b])] = noBlock
	}
	eba.parent[b] = noBlock
	eba.freeList = append(eba.freeList, b)
	eba.liveBlocks--
}

func (eba *edgeblockArray) blockCells(b int32) []edgeCell {
	pw := eba.geo.pageWidth
	off := (int(b) & eba.chunkMask) * pw
	return eba.chunks[int(b)>>eba.chunkShift][off : off+pw]
}

func (eba *edgeblockArray) blockChildren(b int32) []int32 {
	n := eba.geo.subblocksPerBlock
	return eba.children[int(b)*n : int(b)*n+n]
}

func (eba *edgeblockArray) blockSubOcc(b int32) []uint8 {
	n := eba.geo.subblocksPerBlock
	return eba.subOcc[int(b)*n : int(b)*n+n]
}

// incOcc / decOcc keep the block- and subblock-level occupied-cell counts
// consistent.
func (eba *edgeblockArray) incOcc(b int32, sb int) {
	eba.occupancy[b]++
	eba.subOcc[int(b)*eba.geo.subblocksPerBlock+sb]++
}

func (eba *edgeblockArray) decOcc(b int32, sb int) {
	eba.occupancy[b]--
	eba.subOcc[int(b)*eba.geo.subblocksPerBlock+sb]--
}

// subOccOf reports the occupied-cell count of one subblock.
func (eba *edgeblockArray) subOccOf(b int32, sb int) uint8 {
	return eba.subOcc[int(b)*eba.geo.subblocksPerBlock+sb]
}

// subblockCells returns the cells of subblock sb within block b.
func (eba *edgeblockArray) subblockCells(b int32, sb int) []edgeCell {
	base := sb * eba.geo.subblockSize
	cells := eba.blockCells(b)
	return cells[base : base+eba.geo.subblockSize]
}

// childOf returns the child block that subblock sb of block b branched into.
func (eba *edgeblockArray) childOf(b int32, sb int) int32 {
	return eba.children[int(b)*eba.geo.subblocksPerBlock+sb]
}

func (eba *edgeblockArray) setChild(b int32, sb int, child int32) {
	eba.children[int(b)*eba.geo.subblocksPerBlock+sb] = child
}

// addrOf computes the absolute cell address of slot within subblock sb of
// block b.
func (eba *edgeblockArray) addrOf(b int32, sb, slot int) cellAddr {
	return cellAddr(int(b)*eba.geo.pageWidth + sb*eba.geo.subblockSize + slot)
}

func (eba *edgeblockArray) cellAt(a cellAddr) *edgeCell {
	cpc := eba.cellsPerChunk
	return &eba.chunks[int(a)/cpc][int(a)%cpc]
}

// blockOfAddr recovers the block index a cell address belongs to.
func (eba *edgeblockArray) blockOfAddr(a cellAddr) int32 {
	return int32(int(a) / eba.geo.pageWidth)
}

// hasChildren reports whether any subblock of b has branched out.
func (eba *edgeblockArray) hasChildren(b int32) bool {
	for _, c := range eba.blockChildren(b) {
		if c != noBlock {
			return true
		}
	}
	return false
}

// memoryBytes is the resident footprint of the arena: its cell chunks and
// the capacity of every metadata array.
func (eba *edgeblockArray) memoryBytes() uint64 {
	return uint64(len(eba.chunks))*uint64(eba.cellsPerChunk)*uint64(unsafe.Sizeof(edgeCell{})) +
		uint64(cap(eba.chunks))*uint64(unsafe.Sizeof(eba.chunks[:0])) +
		uint64(cap(eba.children)+cap(eba.parent)+cap(eba.parentSb)+cap(eba.occupancy)+cap(eba.freeList))*4 +
		uint64(cap(eba.subOcc))
}
