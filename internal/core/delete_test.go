package core

import "testing"

func TestDeleteAbsentEdge(t *testing.T) {
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DeleteMode = mode
			gt := MustNew(cfg)
			if gt.DeleteEdge(1, 2) {
				t.Fatalf("delete on empty graph succeeded")
			}
			gt.InsertEdge(1, 2, 1)
			if gt.DeleteEdge(1, 3) {
				t.Fatalf("delete of absent destination succeeded")
			}
			if gt.DeleteEdge(2, 2) {
				t.Fatalf("delete of absent source succeeded")
			}
			if !gt.DeleteEdge(1, 2) {
				t.Fatalf("delete of present edge failed")
			}
			if gt.DeleteEdge(1, 2) {
				t.Fatalf("double delete succeeded")
			}
		})
	}
}

func TestDeleteOnlyLeavesTombstones(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeleteMode = DeleteOnly
	cfg.Repr = ReprBlocks // tombstone decay is a block-format phenomenon
	gt := MustNew(cfg)
	for i := 0; i < 1000; i++ {
		gt.InsertEdge(1, uint64(i), 1)
	}
	blocksAtPeak := gt.OccupancyReport().LiveBlocks
	for i := 0; i < 1000; i++ {
		gt.DeleteEdge(1, uint64(i))
	}
	o := gt.OccupancyReport()
	if o.LiveEdges != 0 {
		t.Fatalf("LiveEdges = %d after deleting everything", o.LiveEdges)
	}
	// Delete-only never shrinks: every block is still allocated.
	if o.LiveBlocks != blocksAtPeak {
		t.Fatalf("delete-only shrank blocks: %d -> %d", blocksAtPeak, o.LiveBlocks)
	}
	if gt.Stats().BlocksFreed != 0 {
		t.Fatalf("delete-only freed %d blocks", gt.Stats().BlocksFreed)
	}
	// CAL slots stay allocated (tombstoned) too.
	if o.CALSlots == 0 {
		t.Fatalf("CAL slots should remain reachable under delete-only")
	}
	if o.CALLiveEdges != 0 {
		t.Fatalf("CAL live edges = %d", o.CALLiveEdges)
	}
}

func TestDeleteAndCompactShrinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeleteMode = DeleteAndCompact
	cfg.Repr = ReprBlocks // block counts are the property under test
	gt := MustNew(cfg)
	for i := 0; i < 5000; i++ {
		gt.InsertEdge(1, uint64(i), 1)
	}
	blocksAtPeak := gt.OccupancyReport().LiveBlocks
	for i := 0; i < 5000; i++ {
		gt.DeleteEdge(1, uint64(i))
	}
	o := gt.OccupancyReport()
	if o.LiveEdges != 0 {
		t.Fatalf("LiveEdges = %d after deleting everything", o.LiveEdges)
	}
	// Everything except the vertex's top-parent block should be freed.
	if o.LiveBlocks != 1 {
		t.Fatalf("delete-and-compact left %d live blocks (peak %d), want 1", o.LiveBlocks, blocksAtPeak)
	}
	if gt.Stats().BlocksFreed == 0 {
		t.Fatalf("no blocks freed despite full deletion")
	}
	if gt.Stats().CompactionMoves == 0 {
		t.Fatalf("no compaction moves recorded")
	}
	// CAL chains shrink as well.
	if o.CALSlots != 0 || o.CALLiveBlocks != 0 {
		t.Fatalf("CAL not compacted: %d slots, %d blocks", o.CALSlots, o.CALLiveBlocks)
	}
}

func TestDeleteAndCompactKeepsStructureDense(t *testing.T) {
	cfg := blocksConfig()
	cfg.DeleteMode = DeleteAndCompact
	gt := MustNew(cfg)
	ref := newRefGraph()
	r := &testRand{s: 555}
	// Load, then delete half at random, verifying density afterwards.
	for i := 0; i < 20000; i++ {
		src, dst := uint64(r.intn(20)), uint64(r.intn(4000))
		gt.InsertEdge(src, dst, 1)
		ref.insert(src, dst, 1)
	}
	edges := ref.edges()
	for i, e := range edges {
		if i%2 == 0 {
			gt.DeleteEdge(e.Src, e.Dst)
			ref.delete(e.Src, e.Dst)
		}
	}
	checkEquivalence(t, gt, ref)
	o := gt.OccupancyReport()
	if o.CALFill() < 0.999 {
		t.Fatalf("compacted CAL should be dense, fill = %g", o.CALFill())
	}
	// The EdgeblockArray fill under compaction should be far higher than the
	// same workload under delete-only.
	cfg2 := blocksConfig()
	cfg2.DeleteMode = DeleteOnly
	gt2 := MustNew(cfg2)
	ref2 := newRefGraph()
	r2 := &testRand{s: 555}
	for i := 0; i < 20000; i++ {
		src, dst := uint64(r2.intn(20)), uint64(r2.intn(4000))
		gt2.InsertEdge(src, dst, 1)
		ref2.insert(src, dst, 1)
	}
	edges2 := ref2.edges()
	for i, e := range edges2 {
		if i%2 == 0 {
			gt2.DeleteEdge(e.Src, e.Dst)
		}
	}
	if gt.OccupancyReport().Fill() <= gt2.OccupancyReport().Fill() {
		t.Fatalf("compaction fill %g should beat delete-only fill %g",
			gt.OccupancyReport().Fill(), gt2.OccupancyReport().Fill())
	}
}

func TestTombstoneSlotsAreReused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeleteMode = DeleteOnly
	cfg.Repr = ReprBlocks // tombstone reuse is a block-format phenomenon
	gt := MustNew(cfg)
	for i := 0; i < 500; i++ {
		gt.InsertEdge(1, uint64(i), 1)
	}
	blocks := gt.OccupancyReport().LiveBlocks
	for i := 0; i < 500; i++ {
		gt.DeleteEdge(1, uint64(i))
	}
	// Re-inserting the same destinations must reuse tombstoned cells, not
	// allocate new blocks.
	for i := 0; i < 500; i++ {
		gt.InsertEdge(1, uint64(i), 2)
	}
	if got := gt.OccupancyReport().LiveBlocks; got != blocks {
		t.Fatalf("reinsertion allocated new blocks: %d -> %d", blocks, got)
	}
	for i := 0; i < 500; i++ {
		if w, ok := gt.FindEdge(1, uint64(i)); !ok || w != 2 {
			t.Fatalf("edge %d after reinsertion = (%g,%v)", i, w, ok)
		}
	}
}

func TestDeleteBatch(t *testing.T) {
	gt := MustNew(DefaultConfig())
	gt.InsertBatch([]Edge{{1, 2, 1}, {1, 3, 1}, {2, 3, 1}})
	removed := gt.DeleteBatch([]Edge{{1, 2, 0}, {1, 9, 0}, {2, 3, 0}})
	if removed != 2 {
		t.Fatalf("DeleteBatch removed %d, want 2", removed)
	}
	if gt.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", gt.NumEdges())
	}
}

func TestDeleteFullGraphBothModesEquivalence(t *testing.T) {
	// Load a graph, then delete it batch by batch until empty, checking
	// equivalence at every step — the Fig. 14 workload in miniature.
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DeleteMode = mode
			gt := MustNew(cfg)
			ref := newRefGraph()
			r := &testRand{s: 8080}
			var all []Edge
			for i := 0; i < 10000; i++ {
				src, dst := uint64(r.intn(100)), uint64(r.intn(1000))
				if ref.insert(src, dst, 1) {
					all = append(all, Edge{src, dst, 1})
				}
				gt.InsertEdge(src, dst, 1)
			}
			const batch = 2500
			for start := 0; start < len(all); start += batch {
				end := start + batch
				if end > len(all) {
					end = len(all)
				}
				for _, e := range all[start:end] {
					gt.DeleteEdge(e.Src, e.Dst)
					ref.delete(e.Src, e.Dst)
				}
				checkEquivalence(t, gt, ref)
			}
			if gt.NumEdges() != 0 {
				t.Fatalf("graph not empty after deleting all edges")
			}
		})
	}
}

func TestCompactionAcrossManyVertices(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeleteMode = DeleteAndCompact
	gt := MustNew(cfg)
	ref := newRefGraph()
	r := &testRand{s: 4242}
	for i := 0; i < 30000; i++ {
		src, dst := uint64(r.intn(500)), uint64(r.intn(500))
		gt.InsertEdge(src, dst, 1)
		ref.insert(src, dst, 1)
	}
	// Interleave deletes and inserts heavily.
	for i := 0; i < 30000; i++ {
		src, dst := uint64(r.intn(500)), uint64(r.intn(500))
		if i%3 == 0 {
			gt.InsertEdge(src, dst, 2)
			ref.insert(src, dst, 2)
		} else {
			gt.DeleteEdge(src, dst)
			ref.delete(src, dst)
		}
	}
	checkEquivalence(t, gt, ref)
}
