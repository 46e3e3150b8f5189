package core

// Structure analysis: probe-distance and generation histograms over the
// live structure. These quantify the paper's central claim — that the
// hashing hierarchy keeps the distance travelled when following edges
// short (O(log n) generations for an n-degree vertex) where adjacency-list
// chains grow linearly — and drive the diagnostics cmd/gtload prints.

import "fmt"

// ProbeHistogram summarizes where live edges sit relative to their hash
// positions.
type ProbeHistogram struct {
	// ByProbe[p] counts live cells whose within-subblock Robin Hood probe
	// distance is p (index bounded by SubblockSize).
	ByProbe []uint64
	// ByGeneration[g] counts live cells stored g branch-outs below their
	// vertex's top-parent edgeblock.
	ByGeneration []uint64
	// MaxProbe and MaxGeneration are the observed maxima.
	MaxProbe      int
	MaxGeneration int
}

// MeanProbe is the average within-subblock probe distance of live cells.
func (h ProbeHistogram) MeanProbe() float64 {
	var total, count uint64
	for p, c := range h.ByProbe {
		total += uint64(p) * c
		count += c
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// MeanGeneration is the average descent depth of live cells.
func (h ProbeHistogram) MeanGeneration() float64 {
	var total, count uint64
	for g, c := range h.ByGeneration {
		total += uint64(g) * c
		count += c
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// AnalyzeProbes walks the whole structure and histograms probe distances
// and generations of every live edge. Edges of slice- and cuckoo-format
// vertices count at probe 0 / generation 0 — both formats answer in a
// bounded number of fetches with no descent — so the histogram totals
// always equal NumEdges regardless of representation.
func (gt *GraphTinker) AnalyzeProbes() ProbeHistogram {
	h := ProbeHistogram{
		ByProbe:      make([]uint64, gt.geo.subblockSize),
		ByGeneration: make([]uint64, 1),
	}
	for d := 0; d < len(gt.cont); d++ {
		ac := &gt.cont[d]
		switch ac.kind {
		case reprBlocks:
			if blk := gt.topBlock[d]; blk != noBlock {
				gt.analyzeBlock(blk, 0, &h)
			}
		case reprSlice, reprCuckoo:
			n := uint64(ac.Degree())
			h.ByProbe[0] += n
			h.ByGeneration[0] += n
		}
	}
	for p := len(h.ByProbe) - 1; p >= 0; p-- {
		if h.ByProbe[p] > 0 {
			h.MaxProbe = p
			break
		}
	}
	h.MaxGeneration = len(h.ByGeneration) - 1
	return h
}

// AnalyzeProbes merges the probe/generation histograms of every shard.
// Each shard is analyzed on a version-pinned replica (see seqlock.go), so
// the walk is safe against concurrent batch updates and never observes a
// half-applied batch; shards are pinned one at a time, so the merged
// histogram is per-shard-consistent like ForEachEdge.
func (p *Parallel) AnalyzeProbes() ProbeHistogram {
	var merged ProbeHistogram
	for i := range p.sc {
		h := p.shardAnalyzeProbes(i)
		if merged.ByProbe == nil {
			merged = h
			continue
		}
		for len(merged.ByProbe) < len(h.ByProbe) {
			merged.ByProbe = append(merged.ByProbe, 0)
		}
		for j, c := range h.ByProbe {
			merged.ByProbe[j] += c
		}
		for len(merged.ByGeneration) < len(h.ByGeneration) {
			merged.ByGeneration = append(merged.ByGeneration, 0)
		}
		for j, c := range h.ByGeneration {
			merged.ByGeneration[j] += c
		}
		if h.MaxProbe > merged.MaxProbe {
			merged.MaxProbe = h.MaxProbe
		}
		if h.MaxGeneration > merged.MaxGeneration {
			merged.MaxGeneration = h.MaxGeneration
		}
	}
	return merged
}

// shardAnalyzeProbes analyzes one shard on a pinned replica.
func (p *Parallel) shardAnalyzeProbes(i int) ProbeHistogram {
	sc := &p.sc[i]
	g, idx := sc.pinRead()
	defer sc.unpin(idx)
	return g.AnalyzeProbes()
}

func (gt *GraphTinker) analyzeBlock(blk int32, gen int, h *ProbeHistogram) {
	for len(h.ByGeneration) <= gen {
		h.ByGeneration = append(h.ByGeneration, 0)
	}
	cells := gt.eba.blockCells(blk)
	for i := range cells {
		if cells[i].state == cellOccupied {
			p := int(cells[i].probe)
			if p < len(h.ByProbe) {
				h.ByProbe[p]++
			}
			h.ByGeneration[gen]++
		}
	}
	for _, child := range gt.eba.blockChildren(blk) {
		if child != noBlock {
			gt.analyzeBlock(child, gen+1, h)
		}
	}
}

// DegreeHistogram buckets the out-degrees of non-empty sources by powers
// of two: bucket k counts vertices with degree in [2^k, 2^(k+1)).
func (gt *GraphTinker) DegreeHistogram() []uint64 {
	var buckets []uint64
	gt.ForEachSource(func(src uint64, degree uint32) bool {
		k := 0
		for d := degree; d > 1; d >>= 1 {
			k++
		}
		for len(buckets) <= k {
			buckets = append(buckets, 0)
		}
		buckets[k]++
		return true
	})
	return buckets
}

// CheckInvariants performs a full structural self-check, returning a list
// of violations (empty when healthy). It verifies that block/subblock
// occupancy counters match the cells and cuckoo occupancy masks their live
// counts, that every vertex's format fits the representation and its
// degree, that every live CAL entry resolves through its block tree, that
// per-vertex degrees match reachable live cells, and that every live edge
// is findable along its tree-hash path. Intended for tests and debugging,
// not hot paths.
func (gt *GraphTinker) CheckInvariants() []string {
	var violations []string
	report := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	// Occupancy counters vs actual cells.
	tops := make(map[int32]struct{}, len(gt.topBlock))
	for _, b := range gt.topBlock {
		if b != noBlock {
			tops[b] = struct{}{}
		}
	}
	var live uint64
	for b := 0; b < gt.eba.numBlocks; b++ {
		blk := int32(b)
		if gt.eba.parent[b] == noBlock {
			if _, isTop := tops[blk]; !isTop {
				continue // freed block awaiting reuse
			}
		}
		var blockOcc int32
		for sb := 0; sb < gt.geo.subblocksPerBlock; sb++ {
			cells := gt.eba.subblockCells(blk, sb)
			var occ uint8
			for i := range cells {
				if cells[i].state == cellOccupied {
					occ++
				}
			}
			if got := gt.eba.subOccOf(blk, sb); got != occ {
				report("block %d subblock %d: subOcc=%d, actual %d", b, sb, got, occ)
			}
			blockOcc += int32(occ)
		}
		if got := gt.eba.occupancy[b]; got != blockOcc {
			report("block %d: occupancy=%d, actual %d", b, got, blockOcc)
		}
		live += uint64(blockOcc)
	}
	// Container-resident edges (slice and cuckoo formats) live outside the
	// block arena; together with the block cells they must account for
	// every edge exactly once.
	var contLive uint64
	for d := range gt.cont {
		ac := &gt.cont[d]
		switch ac.kind {
		case reprSlice, reprCuckoo:
			contLive += uint64(ac.Degree())
		}
		// A table, live or kept for reuse, holds exactly n live slots.
		if ac.cuckoo != nil {
			if got := ac.cuckoo.occupied(); got != ac.cuckoo.n {
				report("vertex dense=%d: cuckoo occupancy masks count %d slots, n=%d", d, got, ac.cuckoo.n)
			}
		}
		if ac.kind != reprNone {
			deg := int(gt.props.degree[uint32(d)])
			if got := ac.Degree(); int(got) != deg {
				report("vertex dense=%d: container degree %d != props degree %d", d, got, deg)
			}
			switch {
			case (ac.kind == reprBlocks) != (gt.cfg.Repr == ReprBlocks):
				report("vertex dense=%d: %v format under the %v representation", d, ac.kind, gt.cfg.Repr)
			case ac.kind == reprSlice && deg > gt.cfg.CuckooPromoteDegree:
				report("vertex dense=%d: slice format at degree %d > promote threshold %d", d, deg, gt.cfg.CuckooPromoteDegree)
			case ac.kind == reprCuckoo && deg <= gt.cfg.CuckooDemoteDegree:
				report("vertex dense=%d: cuckoo format at degree %d <= demote threshold %d", d, deg, gt.cfg.CuckooDemoteDegree)
			}
		}
	}
	if live+contLive != gt.numEdges {
		report("live cells %d + container entries %d != numEdges %d", live, contLive, gt.numEdges)
	}

	// Degrees and findability.
	var degreeSum uint64
	gt.ForEachSource(func(src uint64, degree uint32) bool {
		degreeSum += uint64(degree)
		n := 0
		gt.ForEachOutEdge(src, func(dst uint64, w float32) bool {
			n++
			if _, ok := gt.FindEdge(src, dst); !ok {
				report("edge (%d,%d) reachable by walk but not by FIND", src, dst)
			}
			return true
		})
		if uint32(n) != degree {
			report("vertex %d: degree=%d, walk found %d", src, degree, n)
		}
		return true
	})
	if degreeSum != gt.numEdges {
		report("degree sum %d != numEdges %d", degreeSum, gt.numEdges)
	}

	// CAL mirror consistency.
	if gt.cal != nil {
		if gt.cal.liveEdges != gt.numEdges {
			report("CAL live %d != numEdges %d", gt.cal.liveEdges, gt.numEdges)
		}
		// Every live entry resolves through its vertex's block tree: a cell
		// stores the edge, and its pointer for the edge is this slot.
		calSeen := uint64(0)
		for g := range gt.cal.groupHead {
			for b := gt.cal.groupHead[g]; b != noBlock; b = gt.cal.next[b] {
				for s := int32(0); s < gt.cal.used[b]; s++ {
					e := &gt.cal.blockEntries(b)[s]
					if e.src == calTombstone {
						continue
					}
					calSeen++
					if uint32(len(gt.cont)) <= e.src || gt.cont[e.src].kind != reprBlocks {
						report("CAL entry (dense %d,%d) has no block-tree source", e.src, e.dst)
					} else if p, found := gt.cont[e.src].blocks().calPtrOf(e.dst); !found {
						report("CAL entry (dense %d,%d) not stored in its container", e.src, e.dst)
					} else if p != gt.cal.ptr(b, s) {
						report("CAL entry (dense %d,%d) container pointer broken", e.src, e.dst)
					}
				}
			}
		}
		if calSeen != gt.numEdges {
			report("CAL live entries %d != numEdges %d", calSeen, gt.numEdges)
		}
	}
	return violations
}
