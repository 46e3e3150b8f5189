package core

// Tests exercising the chunked slab arena across chunk boundaries.

import "testing"

func TestArenaCrossesChunkBoundaries(t *testing.T) {
	// defaultBlocksPerChunk is 1024; force several thousand blocks by
	// giving every source its own top-parent plus overflow children.
	// Degree-3 vertices would stay in the slice format under the adaptive
	// default, so pin the block representation — the arena is what's tested.
	cfg := DefaultConfig()
	cfg.Repr = ReprBlocks
	gt := MustNew(cfg)
	ref := newRefGraph()
	const sources = 3000
	for s := uint64(0); s < sources; s++ {
		for d := uint64(0); d < 3; d++ {
			gt.InsertEdge(s, s*7+d, 1)
			ref.insert(s, s*7+d, 1)
		}
	}
	if gt.eba.numBlocks < sources {
		t.Fatalf("expected at least one block per source, got %d", gt.eba.numBlocks)
	}
	if len(gt.eba.chunks) < 2 {
		t.Fatalf("test did not cross a chunk boundary: %d chunks", len(gt.eba.chunks))
	}
	checkEquivalence(t, gt, ref)
}

func TestGrowHelper(t *testing.T) {
	s := make([]int32, 0, 2)
	s = grow(s, 3)
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	for _, v := range s {
		if v != 0 {
			t.Fatalf("grow did not zero")
		}
	}
	s[0] = 42
	s = grow(s, 100)
	if len(s) != 103 || s[0] != 42 {
		t.Fatalf("grow lost data: len=%d s[0]=%d", len(s), s[0])
	}
	// Growth within capacity must not reallocate.
	big := make([]int32, 1, 1000)
	big[0] = 7
	grown := grow(big, 10)
	if &grown[0] != &big[0] {
		t.Fatalf("grow reallocated despite capacity")
	}
}

func TestFreeListReusePreservesCorrectness(t *testing.T) {
	cfg := blocksConfig()
	cfg.DeleteMode = DeleteAndCompact
	gt := MustNew(cfg)
	ref := newRefGraph()
	r := &testRand{s: 606}
	// Repeated fill/drain cycles exercise block recycling heavily.
	for cycle := 0; cycle < 5; cycle++ {
		var batch []Edge
		for i := 0; i < 5000; i++ {
			e := Edge{uint64(r.intn(10)), uint64(r.intn(3000)), 1}
			batch = append(batch, e)
			gt.InsertEdge(e.Src, e.Dst, e.Weight)
			ref.insert(e.Src, e.Dst, e.Weight)
		}
		for _, e := range batch {
			gt.DeleteEdge(e.Src, e.Dst)
			ref.delete(e.Src, e.Dst)
		}
	}
	checkEquivalence(t, gt, ref)
	if gt.Stats().BlocksFreed == 0 {
		t.Fatalf("no blocks recycled")
	}
	if v := gt.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants broken after recycling: %v", v)
	}
}
