package core

// blockContainer is the paper's hashed edgeblock tree as one vertex's edge
// format: a top-parent edgeblock in the host's main region
// (GraphTinker.topBlock), Robin Hood placement within subblocks, and
// Tree-Based Hashing descent into child edgeblocks on congestion. The
// storage itself lives in the host's shared edgeblockArray arena — this
// type only binds the (host, dense id) pair, built from the adaptor's on
// each call, and the vertex's degree is the adaptor's; the traversal
// helpers (findCell, placeInSubblock, compactHole, ...) stay methods of
// GraphTinker because they address the shared arena.
//
// The block tree is the only format the CAL mirrors: each cell keeps the
// flat index of its CAL copy, so an update or delete patches the copy in
// O(1), and calPtrOf/repointCAL resolve a CAL entry back to its cell.

type blockContainer struct {
	host *GraphTinker
	d    uint32
}

func (c blockContainer) top() int32 { return c.host.topBlock[c.d] }

func (c blockContainer) find(dst uint64) (float32, int, bool) {
	gt := c.host
	if c.top() == noBlock {
		return 0, 0, false
	}
	fr, found := gt.findCell(c.d, dst)
	if !found {
		return 0, fr.cells, false
	}
	return gt.eba.subblockCells(fr.block, fr.sb)[fr.slot].weight, fr.cells, true
}

func (c blockContainer) insert(dst uint64, w float32) (bool, int) {
	gt := c.host
	if c.top() == noBlock {
		gt.topBlock[c.d] = gt.eba.allocBlock(noBlock, 0)
		gt.stats.blocksAllocated.Add(1)
	}

	// FIND mode: update in place when the edge already exists.
	fr, found := gt.findCell(c.d, dst)
	probe := fr.cells
	if found {
		cell := &gt.eba.subblockCells(fr.block, fr.sb)[fr.slot]
		cell.weight = w
		if gt.cal != nil && cell.calPtr.valid() {
			gt.cal.patchWeight(cell.calPtr, w)
			gt.stats.calPatches.Add(1)
		}
		return false, probe
	}

	// INSERT mode: mirror into the CAL first so the floating cell carries
	// its CAL pointer through every placement (RHH swaps and compaction
	// pull-ups move the pointer with the cell; the mirror is not touched).
	float := edgeCell{dst: dst, weight: w, calPtr: invalidCALPtr, state: cellOccupied}
	if gt.cal != nil {
		float.calPtr = gt.cal.append(c.d, dst, w)
		gt.stats.calAppends.Add(1)
	}

	// Settle the floating cell by the Robin Hood / Tree-Based Hashing
	// descent.
	blk := c.top()
	gen := 0
	for {
		sb := gt.subblockFor(float.dst, gen)
		outcome, evicted, scanned := gt.placeInSubblock(blk, sb, float)
		probe += scanned
		if outcome == placedHere {
			return true, probe
		}
		float = evicted
		child := gt.eba.childOf(blk, sb)
		if child == noBlock {
			child = gt.eba.allocBlock(blk, sb)
			gt.eba.setChild(blk, sb, child)
			gt.stats.branches.Add(1)
			gt.stats.blocksAllocated.Add(1)
		}
		blk = child
		gen++
		gt.stats.observeGeneration(gen)
	}
}

func (c blockContainer) delete(dst uint64) (bool, int) {
	gt := c.host
	if c.top() == noBlock {
		return false, 0
	}
	fr, found := gt.findCell(c.d, dst)
	if !found {
		return false, fr.cells
	}

	cell := &gt.eba.subblockCells(fr.block, fr.sb)[fr.slot]
	ptr := cell.calPtr

	switch gt.cfg.DeleteMode {
	case DeleteOnly:
		// Tombstone: the bucket reads as vacant to later insertions but is
		// still traversed when following edges — no shrinking happens.
		cell.state = cellTombstone
		cell.calPtr = invalidCALPtr
		gt.eba.decOcc(fr.block, fr.sb)
		gt.dropCALEntry(ptr, c.d)
	case DeleteAndCompact:
		cell.state = cellEmpty
		cell.calPtr = invalidCALPtr
		gt.eba.decOcc(fr.block, fr.sb)
		gt.dropCALEntry(ptr, c.d)
		gt.compactHole(fr.block, fr.sb, fr.slot)
	}
	return true, fr.cells
}

func (c blockContainer) iterate(fn func(dst uint64, w float32) bool) bool {
	blk := c.top()
	if blk == noBlock {
		return true
	}
	return c.host.walkSubtree(blk, fn)
}

// calPtrOf resolves the CAL pointer stored in the owning cell of dst.
func (c blockContainer) calPtrOf(dst uint64) (calPtr, bool) {
	gt := c.host
	if c.top() == noBlock {
		return invalidCALPtr, false
	}
	fr, found := gt.findCell(c.d, dst)
	if !found {
		return invalidCALPtr, false
	}
	return gt.eba.subblockCells(fr.block, fr.sb)[fr.slot].calPtr, true
}

// repointCAL re-points the owning cell's CAL pointer after the mirror
// compacted the entry into a new slot. It pays a FIND descent, whose cells
// count in the probe statistics like any other.
func (c blockContainer) repointCAL(dst uint64, p calPtr) bool {
	gt := c.host
	if c.top() == noBlock {
		return false
	}
	fr, found := gt.findCell(c.d, dst)
	if !found {
		return false
	}
	gt.eba.subblockCells(fr.block, fr.sb)[fr.slot].calPtr = p
	return true
}
