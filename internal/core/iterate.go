package core

import "math/bits"

// ForEachOutEdge visits every live out-edge of src (in unspecified order)
// through the vertex's active edge container — for the block format this
// walks the top-parent edgeblock and every descendant in the overflow
// region. This is the random-access retrieval path the incremental-
// processing mode uses. The callback returns false to stop.
func (gt *GraphTinker) ForEachOutEdge(src uint64, fn func(dst uint64, w float32) bool) {
	d, ok := gt.denseLookup(src)
	if !ok || uint32(len(gt.cont)) <= d || gt.cont[d].kind == reprNone {
		return
	}
	gt.cont[d].Iterate(fn)
}

// walkSubtree visits occupied cells of blk and all its descendants,
// skipping subblocks with no occupied cells (their child chains are still
// followed — tombstoned paths keep descendants). It returns false when the
// callback stopped the walk.
//
// walkSubtree deliberately mutates nothing (not even statistics), so the
// read-only iteration surface (ForEachOutEdge / ForEachEdge / ForEachSource)
// is safe for concurrent readers — the property the parallel engine's
// incremental phase relies on.
func (gt *GraphTinker) walkSubtree(blk int32, fn func(dst uint64, w float32) bool) bool {
	if gt.eba.occupancy[blk] > 0 {
		subOcc := gt.eba.blockSubOcc(blk)
		for sb := range subOcc {
			if subOcc[sb] == 0 {
				continue
			}
			cells := gt.eba.subblockCells(blk, sb)
			remaining := subOcc[sb]
			for i := range cells {
				c := &cells[i]
				if c.state == cellOccupied {
					if !fn(c.dst, c.weight) {
						return false
					}
					remaining--
					if remaining == 0 {
						break
					}
				}
			}
		}
	}
	for _, child := range gt.eba.blockChildren(blk) {
		if child != noBlock {
			if !gt.walkSubtree(child, fn) {
				return false
			}
		}
	}
	return true
}

// ForEachEdge visits every live edge in the graph (ForEachActiveEdge with
// every source accepted). The callback returns false to stop.
func (gt *GraphTinker) ForEachEdge(fn func(src, dst uint64, w float32) bool) {
	gt.ForEachActiveEdge(nil, fn)
}

// ForEachActiveEdge is the streaming path full-processing analytics use:
// it visits at least the out-edges of every source active accepts (every
// source when active is nil), so the caller still filters. The default
// store walks its vertices in dense-id order, skips the sources active
// rejects, and reads each accepted vertex's slice entries or cuckoo slots
// directly. The paper's structure (ReprBlocks) streams every edge instead,
// as its figures measure: from the Coarse Adjacency List when the CAL is
// on, else through the block tree vertex by vertex. The callback returns
// false to stop.
func (gt *GraphTinker) ForEachActiveEdge(active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	if gt.cfg.Repr == ReprBlocks {
		gt.forEachBlockEdge(fn)
		return
	}
	for d := range gt.cont {
		ac := &gt.cont[d]
		if ac.kind == reprNone {
			continue
		}
		src := gt.rawOf(uint32(d))
		if active != nil && !active(src) {
			continue
		}
		switch ac.kind {
		case reprSlice:
			for i := range ac.slice.entries {
				if e := &ac.slice.entries[i]; !fn(src, e.dst, e.weight) {
					return
				}
			}
		case reprCuckoo:
			c := ac.cuckoo
			for b, occ := range c.occ {
				for ; occ != 0; occ &= occ - 1 {
					if e := &c.slots[b*cuckooSlotsPerBucket+bits.TrailingZeros8(occ)]; !fn(src, e.dst, e.weight) {
						return
					}
				}
			}
		}
	}
}

// forEachBlockEdge streams every edge of a ReprBlocks store: the CAL
// group by group when it is on, else each vertex's block tree in dense-id
// order.
func (gt *GraphTinker) forEachBlockEdge(fn func(src, dst uint64, w float32) bool) {
	if gt.cal != nil {
		var toRaw []uint64
		if gt.sgh != nil {
			toRaw = gt.sgh.toRaw
		}
		gt.cal.forEach(toRaw, fn)
		return
	}
	for d := range gt.cont {
		ac := &gt.cont[d]
		if ac.kind == reprNone {
			continue
		}
		src := gt.rawOf(uint32(d))
		// The closure stays on the stack: iterate does not retain it.
		if !ac.blocks().iterate(func(dst uint64, w float32) bool { return fn(src, dst, w) }) {
			return
		}
	}
}

// Edges returns a snapshot of all live edges.
func (gt *GraphTinker) Edges() []Edge {
	out := make([]Edge, 0, gt.numEdges)
	gt.ForEachEdge(func(src, dst uint64, w float32) bool {
		out = append(out, Edge{Src: src, Dst: dst, Weight: w})
		return true
	})
	return out
}

// OutEdges returns a snapshot of the out-edges of src.
func (gt *GraphTinker) OutEdges(src uint64) []Edge {
	var out []Edge
	gt.ForEachOutEdge(src, func(dst uint64, w float32) bool {
		out = append(out, Edge{Src: src, Dst: dst, Weight: w})
		return true
	})
	return out
}

// ForEachSource visits every source vertex that currently has at least one
// live out-edge, in dense-id order.
func (gt *GraphTinker) ForEachSource(fn func(src uint64, degree uint32) bool) {
	for d := 0; d < len(gt.cont); d++ {
		if gt.cont[d].kind == reprNone {
			continue
		}
		deg := gt.props.degree[d]
		if deg == 0 {
			continue
		}
		if !fn(gt.rawOf(uint32(d)), deg) {
			return
		}
	}
}
