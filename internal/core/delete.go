package core

// DeleteEdge removes edge (src, dst) using the configured deletion
// mechanism (Sec. III.C). It returns false when the edge is not stored.
func (gt *GraphTinker) DeleteEdge(src, dst uint64) bool {
	return gt.applyOne(&Edge{Src: src, Dst: dst}, true).deleted == 1
}

// dropCALEntry removes the mirror copy of a deleted block-tree edge
// according to the configured deletion mechanism.
func (gt *GraphTinker) dropCALEntry(ptr calPtr, d uint32) {
	if gt.cal == nil || !ptr.valid() {
		return
	}
	switch gt.cfg.DeleteMode {
	case DeleteOnly:
		gt.cal.invalidate(ptr)
	case DeleteAndCompact:
		// The entry that backfilled the hole names its vertex by dense id;
		// the block tree re-points that edge's cell through a FIND.
		if mv, moved := gt.cal.removeCompact(ptr, d); moved {
			gt.cont[mv.src].blocks().repointCAL(mv.dst, ptr)
		}
	}
	gt.stats.calPatches.Add(1)
}

// DeleteBatch removes a batch of edges, returning how many were present.
// It is ApplyOps over an all-delete batch, read in place.
func (gt *GraphTinker) DeleteBatch(edges []Edge) int {
	_, deleted := gt.apply(opSource{edges: edges, del: true})
	return deleted
}

// compactHole implements the delete-and-compact mechanism: the hole at
// (blk, sb, slot) is backfilled with an edge pulled from the deepest
// occupied descendant of that subblock's child chain. Any edge stored in
// the subtree rooted at a subblock's child necessarily tree-hashed to that
// subblock on its way down, so it is a legal resident of the parent
// subblock. Blocks that end up empty and childless are unlinked from their
// parent subblock and returned to the free list, which is how the structure
// shrinks as more edges are deleted (the behaviour Fig. 14 measures as
// stable delete throughput).
func (gt *GraphTinker) compactHole(blk int32, sb, slot int) {
	child := gt.eba.childOf(blk, sb)
	if child == noBlock {
		gt.freeUpwardsFrom(blk)
		return
	}
	vblk, vsb, vslot, found := gt.deepestOccupied(child)
	if !found {
		// The whole child subtree is empty; prune it.
		gt.pruneEmptySubtree(child)
		gt.freeUpwardsFrom(blk)
		return
	}
	victim := gt.eba.subblockCells(vblk, vsb)[vslot]
	victim.probe = 0
	gt.writeCell(blk, sb, slot, victim)
	vc := &gt.eba.subblockCells(vblk, vsb)[vslot]
	vc.state = cellEmpty
	vc.calPtr = invalidCALPtr
	gt.eba.decOcc(vblk, vsb)
	gt.stats.compactionMoves.Add(1)
	// The hole moved down to where the victim was; keep compacting from
	// there so the shrink proceeds leaf-ward.
	gt.compactHole(vblk, vsb, vslot)
}

// deepestOccupied finds an occupied cell in the subtree rooted at blk,
// preferring the deepest generation so compaction frees leaves first.
func (gt *GraphTinker) deepestOccupied(blk int32) (int32, int, int, bool) {
	// Descend into children first.
	for sb := 0; sb < gt.geo.subblocksPerBlock; sb++ {
		if child := gt.eba.childOf(blk, sb); child != noBlock {
			if b, s, sl, ok := gt.deepestOccupied(child); ok {
				return b, s, sl, ok
			}
		}
	}
	if gt.eba.occupancy[blk] > 0 {
		cells := gt.eba.blockCells(blk)
		for i := len(cells) - 1; i >= 0; i-- {
			if cells[i].state == cellOccupied {
				return blk, i / gt.geo.subblockSize, i & gt.geo.subblockMask, true
			}
		}
	}
	return noBlock, 0, 0, false
}

// pruneEmptySubtree frees every block in an all-empty subtree.
func (gt *GraphTinker) pruneEmptySubtree(blk int32) {
	for sb := 0; sb < gt.geo.subblocksPerBlock; sb++ {
		if child := gt.eba.childOf(blk, sb); child != noBlock {
			gt.pruneEmptySubtree(child)
		}
	}
	gt.releaseBlock(blk)
}

// freeUpwardsFrom frees blk if it is empty and childless, then walks up the
// parent chain doing the same, stopping at top-parent blocks (the main
// region slot stays reserved for the vertex until the instance is reset).
func (gt *GraphTinker) freeUpwardsFrom(blk int32) {
	for blk != noBlock {
		if gt.eba.occupancy[blk] > 0 || gt.eba.hasChildren(blk) {
			return
		}
		parent := gt.eba.parent[blk]
		if parent == noBlock {
			return // top-parent block: keep the vertex's main-region slot
		}
		gt.releaseBlock(blk)
		blk = parent
	}
}

func (gt *GraphTinker) releaseBlock(blk int32) {
	gt.eba.freeBlock(blk)
	gt.stats.blocksFreed.Add(1)
}
